#include "sim/pool.hpp"

#include <algorithm>
#include <cassert>

namespace nbe::sim {

PoolRegistry& PoolRegistry::instance() {
    // Leaky singleton: pools created by static-lifetime objects may
    // unregister during process teardown; never destroy the registry.
    // Still reachable through this pointer, so leak checkers stay quiet.
    static PoolRegistry* g = new PoolRegistry();
    return *g;
}

void PoolRegistry::add(const std::string* name, const PoolStats* stats) {
    entries_.emplace_back(name, stats);
}

void PoolRegistry::remove(const PoolStats* stats) noexcept {
    lost_blocks_ += stats->live;
    entries_.erase(
        std::remove_if(entries_.begin(), entries_.end(),
                       [stats](const auto& e) { return e.second == stats; }),
        entries_.end());
}

std::vector<PoolRegistry::Snapshot> PoolRegistry::snapshot() const {
    std::vector<Snapshot> out;
    for (const auto& [name, stats] : entries_) {
        auto it = std::find_if(out.begin(), out.end(), [&](const Snapshot& s) {
            return s.name == *name;
        });
        if (it == out.end()) {
            out.push_back(Snapshot{*name, *stats});
            continue;
        }
        it->stats.allocs += stats->allocs;
        it->stats.chunk_allocs += stats->chunk_allocs;
        it->stats.oversize += stats->oversize;
        it->stats.live += stats->live;
        it->stats.free_blocks += stats->free_blocks;
    }
    std::sort(out.begin(), out.end(),
              [](const Snapshot& a, const Snapshot& b) { return a.name < b.name; });
    return out;
}

std::shared_ptr<BlockPool> BlockPool::create(std::string name) {
    return std::shared_ptr<BlockPool>(new BlockPool(std::move(name)));
}

BlockPool::BlockPool(std::string name) : name_(std::move(name)) {
    PoolRegistry::instance().add(&name_, &stats_);
}

BlockPool::~BlockPool() { PoolRegistry::instance().remove(&stats_); }

void BlockPool::grow() {
    // Roughly one page per chunk, with a floor so tiny pools amortize too.
    const std::size_t blocks = std::max<std::size_t>(8, 4096 / block_);
    chunks_.push_back(std::make_unique<std::byte[]>(blocks * block_));
    ++stats_.chunk_allocs;
    std::byte* base = chunks_.back().get();
    for (std::size_t i = blocks; i-- > 0;) {
        auto* n = reinterpret_cast<FreeNode*>(base + i * block_);
        n->next = free_;
        free_ = n;
    }
    stats_.free_blocks += blocks;
}

void* BlockPool::acquire(std::size_t bytes) {
    const std::size_t sz = rounded(bytes);
    if (block_ == 0) block_ = sz;
    if (sz != block_) {
        ++stats_.oversize;
        ++stats_.allocs;
        ++stats_.live;
        return ::operator new(sz);
    }
    if (free_ == nullptr) grow();
    FreeNode* n = free_;
    free_ = n->next;
    --stats_.free_blocks;
    ++stats_.allocs;
    ++stats_.live;
    return n;
}

void BlockPool::release(void* p, std::size_t bytes) noexcept {
    const std::size_t sz = rounded(bytes);
    --stats_.live;
    if (sz != block_) {
        ::operator delete(p);
        return;
    }
    if constexpr (kPoolPoison) std::memset(p, 0xEF, block_);
    auto* n = static_cast<FreeNode*>(p);
    n->next = free_;
    free_ = n;
    ++stats_.free_blocks;
}

}  // namespace nbe::sim
