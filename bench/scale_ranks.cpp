// Rank-count scaling sweep (fig13-style LU plus a fence microloop), the
// workload the fiber scheduler exists for: hundreds-to-thousands of
// simulated ranks on one host.
//
// Two workloads per rank count:
//   * LU decomposition (apps/lu.hpp, New-nonblocking mode): the paper's
//     Figure 13 application kernel, compute + GATS broadcast epochs.
//   * Fence microloop: `iters` rounds of one 8-byte put to the right
//     neighbour closed by MPI_WIN_FENCE — an all-to-all synchronization
//     storm, the worst case for per-event scheduler overhead.
//
// Virtual-time results are deterministic (identical across hosts and
// repeat runs); wall-clock seconds measure this host. --json writes
// both, separated, for scripts/bench_report.sh:
//
//   {
//     "bench": "scale_ranks",
//     "deterministic": { "lu": [ {ranks, m, virtual_s, comm_pct} ... ],
//                        "fence": [ {ranks, iters, virtual_us_per_fence} ... ] },
//     "wall_clock":    { "lu": [ {ranks, seconds} ... ],
//                        "fence": [ {ranks, seconds} ... ] }
//   }
//
// Flags: --ranks=64,128,...  --iters=N  --lu-m=N  --json=FILE
//        (plus the common --trace= / --metrics=)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/lu.hpp"
#include "bench_common.hpp"
#include "core/window.hpp"

using namespace nbe;
using namespace nbe::apps;
using namespace nbe::bench;
using nbe::Job;
using nbe::Proc;
using nbe::Window;

namespace {

struct LuPoint {
    int ranks = 0;
    double virtual_s = 0;
    double comm_pct = 0;
    double wall_s = 0;
};

struct FencePoint {
    int ranks = 0;
    int iters = 0;
    double virtual_us_per_fence = 0;
    double wall_s = 0;
};

struct PayloadPoint {
    int ranks = 0;
    int iters = 0;
    std::size_t bytes = 0;
    double virtual_us_per_iter = 0;
    double wall_s = 0;
    double wall_mb_s = 0;  ///< simulated payload bytes moved per wall second
};

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

LuPoint run_lu_point(int ranks, std::size_t m) {
    LuParams params;
    params.ranks = ranks;
    params.mode = Mode::NewNonblocking;
    params.m = m;
    params.flop_ns = 4.0;
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = run_lu(params);
    LuPoint out;
    out.ranks = ranks;
    out.virtual_s = r.total_s;
    out.comm_pct = r.comm_pct;
    out.wall_s = wall_seconds_since(t0);
    return out;
}

FencePoint run_fence_point(int ranks, int iters) {
    rt::JobConfig cfg;
    cfg.ranks = ranks;
    cfg.mode = rt::Mode::NewNonblocking;
    cfg.seed = 0x5c1eULL;
    const auto t0 = std::chrono::steady_clock::now();
    Job job(cfg);
    job.run([&](Proc& p) {
        Window win = p.create_window(4096);
        win.fence();
        for (int i = 0; i < iters; ++i) {
            const std::uint64_t v = static_cast<std::uint64_t>(i);
            win.put(&v, sizeof(v), (p.rank() + 1) % ranks, 0);
            win.fence();
        }
        win.fence(rma::kNoSucceed);
    });
    FencePoint out;
    out.ranks = ranks;
    out.iters = iters;
    out.virtual_us_per_fence =
        static_cast<double>(job.world().engine().now()) / 1e3 / iters;
    out.wall_s = wall_seconds_since(t0);
    return out;
}

// Passive-target large-payload storm (PR4's zero-copy datapath target):
// every rank repeatedly locks its right neighbour, puts `bytes` in one
// call, and unlocks. Per iteration the payload crosses the simulated wire
// once; pooled packets and refcounted buffers make the host cost per byte
// the thing this point measures.
PayloadPoint run_payload_point(int ranks, int iters, std::size_t bytes) {
    rt::JobConfig cfg;
    cfg.ranks = ranks;
    cfg.mode = rt::Mode::NewNonblocking;
    cfg.seed = 0x9a71ULL;
    const auto t0 = std::chrono::steady_clock::now();
    Job job(cfg);
    job.run([&](Proc& p) {
        Window win = p.create_window(bytes);
        std::vector<std::uint64_t> buf(
            bytes / sizeof(std::uint64_t),
            0x1000000ULL + static_cast<std::uint64_t>(p.rank()));
        p.barrier();
        const int target = (p.rank() + 1) % ranks;
        for (int i = 0; i < iters; ++i) {
            win.lock(LockType::Exclusive, target);
            win.put(std::span<const std::uint64_t>(buf), target, 0);
            win.unlock(target);
        }
        p.barrier();
    });
    PayloadPoint out;
    out.ranks = ranks;
    out.iters = iters;
    out.bytes = bytes;
    out.virtual_us_per_iter =
        static_cast<double>(job.world().engine().now()) / 1e3 / iters;
    out.wall_s = wall_seconds_since(t0);
    const double total_mb = static_cast<double>(bytes) * ranks * iters / 1e6;
    out.wall_mb_s = out.wall_s > 0 ? total_mb / out.wall_s : 0;
    return out;
}

std::vector<int> parse_ranks(const char* csv) {
    std::vector<int> out;
    int v = 0;
    for (const char* c = csv;; ++c) {
        if (*c >= '0' && *c <= '9') {
            v = v * 10 + (*c - '0');
        } else {
            if (v > 0) out.push_back(v);
            v = 0;
            if (*c == '\0') break;
        }
    }
    return out;
}

void write_json(const char* path, const std::vector<LuPoint>& lu,
                const std::vector<FencePoint>& fence, std::size_t lu_m) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "scale_ranks: cannot write %s\n", path);
        return;
    }
    std::fprintf(f, "{\n  \"bench\": \"scale_ranks\",\n");
    std::fprintf(f, "  \"deterministic\": {\n    \"lu\": [\n");
    for (std::size_t i = 0; i < lu.size(); ++i) {
        std::fprintf(f,
                     "      {\"ranks\": %d, \"m\": %zu, \"virtual_s\": %.9f, "
                     "\"comm_pct\": %.4f}%s\n",
                     lu[i].ranks, lu_m, lu[i].virtual_s, lu[i].comm_pct,
                     i + 1 < lu.size() ? "," : "");
    }
    std::fprintf(f, "    ],\n    \"fence\": [\n");
    for (std::size_t i = 0; i < fence.size(); ++i) {
        std::fprintf(f,
                     "      {\"ranks\": %d, \"iters\": %d, "
                     "\"virtual_us_per_fence\": %.4f}%s\n",
                     fence[i].ranks, fence[i].iters,
                     fence[i].virtual_us_per_fence,
                     i + 1 < fence.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  },\n  \"wall_clock\": {\n    \"lu\": [\n");
    for (std::size_t i = 0; i < lu.size(); ++i) {
        std::fprintf(f, "      {\"ranks\": %d, \"seconds\": %.3f}%s\n",
                     lu[i].ranks, lu[i].wall_s,
                     i + 1 < lu.size() ? "," : "");
    }
    std::fprintf(f, "    ],\n    \"fence\": [\n");
    for (std::size_t i = 0; i < fence.size(); ++i) {
        std::fprintf(f, "      {\"ranks\": %d, \"seconds\": %.3f}%s\n",
                     fence[i].ranks, fence[i].wall_s,
                     i + 1 < fence.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  }\n}\n");
    std::fclose(f);
}

void write_payload_json(const char* path,
                        const std::vector<PayloadPoint>& pts) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "scale_ranks: cannot write %s\n", path);
        return;
    }
    std::fprintf(f, "{\n  \"bench\": \"scale_ranks\",\n");
    std::fprintf(f, "  \"workload\": \"payload\",\n");
    std::fprintf(f, "  \"deterministic\": {\n    \"payload\": [\n");
    for (std::size_t i = 0; i < pts.size(); ++i) {
        std::fprintf(f,
                     "      {\"ranks\": %d, \"iters\": %d, \"bytes\": %zu, "
                     "\"virtual_us_per_iter\": %.4f}%s\n",
                     pts[i].ranks, pts[i].iters, pts[i].bytes,
                     pts[i].virtual_us_per_iter,
                     i + 1 < pts.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  },\n  \"wall_clock\": {\n    \"payload\": [\n");
    for (std::size_t i = 0; i < pts.size(); ++i) {
        std::fprintf(f,
                     "      {\"ranks\": %d, \"seconds\": %.3f, "
                     "\"mb_per_wall_s\": %.1f}%s\n",
                     pts[i].ranks, pts[i].wall_s, pts[i].wall_mb_s,
                     i + 1 < pts.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  }\n}\n");
    std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
    nbe::bench::parse_obs_args(argc, argv);
    std::vector<int> ranks = {64, 128, 256, 512, 1024};
    int iters = 4;
    std::size_t lu_m = 512;
    std::size_t payload_bytes = 1 << 20;  // 1 MiB per put
    bool payload_workload = false;
    const char* json_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        const char* a = argv[i];
        if (std::strncmp(a, "--ranks=", 8) == 0) {
            ranks = parse_ranks(a + 8);
        } else if (std::strncmp(a, "--iters=", 8) == 0) {
            iters = std::atoi(a + 8);
        } else if (std::strncmp(a, "--lu-m=", 7) == 0) {
            lu_m = static_cast<std::size_t>(std::atol(a + 7));
        } else if (std::strncmp(a, "--payload-bytes=", 16) == 0) {
            payload_bytes = static_cast<std::size_t>(std::atol(a + 16));
        } else if (std::strcmp(a, "--workload=payload") == 0) {
            payload_workload = true;
        } else if (std::strncmp(a, "--json=", 7) == 0) {
            json_path = a + 7;
        } else {
            std::fprintf(stderr, "scale_ranks: unknown flag %s\n", a);
            return 1;
        }
    }

    if (payload_workload) {
        print_header(
            "Passive-target payload storm: lock / put(" +
                std::to_string(payload_bytes) + " B) / unlock x " +
                std::to_string(iters),
            "zero-copy datapath throughput (PR 4)");
        std::printf("%6s %8s %12s %18s %12s %14s\n", "ranks", "iters",
                    "bytes", "virtual us/iter", "wall s", "wall MB/s");
        std::vector<PayloadPoint> pts;
        for (int n : ranks) {
            pts.push_back(run_payload_point(n, iters, payload_bytes));
            std::printf("%6d %8d %12zu %18.3f %12.3f %14.1f\n", n, iters,
                        payload_bytes, pts.back().virtual_us_per_iter,
                        pts.back().wall_s, pts.back().wall_mb_s);
            std::fflush(stdout);
        }
        if (json_path != nullptr) write_payload_json(json_path, pts);
        std::printf(
            "\nVirtual-time columns are deterministic; wall-clock columns\n"
            "measure this host.\n");
        return 0;
    }

    print_header("Rank-count scaling: LU " + std::to_string(lu_m) + "^2 and " +
                     std::to_string(iters) + "-round fence microloop",
                 "Figure 13 regime at scale / Section VIII-B");
    std::printf("%6s %14s %10s %12s %18s %12s\n", "ranks", "LU virtual s",
                "LU %comm", "LU wall s", "fence virtual us", "fence wall s");

    std::vector<LuPoint> lu;
    std::vector<FencePoint> fence;
    for (int n : ranks) {
        lu.push_back(run_lu_point(n, lu_m));
        fence.push_back(run_fence_point(n, iters));
        std::printf("%6d %14.6f %10.2f %12.3f %18.3f %12.3f\n", n,
                    lu.back().virtual_s, lu.back().comm_pct, lu.back().wall_s,
                    fence.back().virtual_us_per_fence, fence.back().wall_s);
        std::fflush(stdout);
    }
    if (json_path != nullptr) write_json(json_path, lu, fence, lu_m);
    std::printf(
        "\nVirtual-time columns are deterministic; wall-clock columns\n"
        "measure this host.\n");
    return 0;
}
