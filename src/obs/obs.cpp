#include "obs/obs.hpp"

#include <fstream>

namespace nbe::obs {

ObsConfig& default_obs_config() {
    static ObsConfig cfg;
    return cfg;
}

ExportConfig& default_export_config() {
    static ExportConfig cfg;
    return cfg;
}

std::string numbered_path(const std::string& path, int index) {
    if (index <= 1) return path;
    const auto dot = path.rfind('.');
    const auto slash = path.rfind('/');
    std::string tag = ".";
    tag += std::to_string(index);
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash)) {
        return path + tag;
    }
    return path.substr(0, dot) + tag + path.substr(dot);
}

std::vector<std::string> maybe_export(Obs& obs) {
    std::vector<std::string> failed;
    auto& ex = default_export_config();
    if (ex.trace_path.empty() && ex.metrics_path.empty()) return failed;
    static int run_index = 0;
    ++run_index;
    const auto write = [&](const std::string& path, const auto& emit) {
        const std::string file = numbered_path(path, run_index);
        std::ofstream os(file);
        emit(os);
        os.close();
        if (!os) failed.push_back(file);
    };
    if (!ex.trace_path.empty() && obs.tracer().enabled()) {
        write(ex.trace_path,
              [&](std::ostream& os) { obs.tracer().write_chrome_json(os); });
    }
    if (!ex.metrics_path.empty() && obs.metrics_enabled()) {
        write(ex.metrics_path,
              [&](std::ostream& os) { obs.metrics().write_json(os); });
    }
    return failed;
}

}  // namespace nbe::obs
