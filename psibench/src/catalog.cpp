#include "catalog.hpp"

#include "base/logging.hpp"

namespace psibench {

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"latency_p50_us", "us"},
        {"latency_p95_us", "us"},
        {"goodput_rps", "1/s"},
        {"cpu_us_per_req", "us"},
        {"peak_rss_mb", "MB"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"tables_s", "s"},
        {"sim_msteps_per_s", "Msteps/s"},
        {"kl0.compile_us", "us"},
        {"kl0.code_words", "count"},
        {"fast.load_us", "us"},
        {"fast.solve_us", "us"},
        {"fast.index_hits", "count"},
        {"fast.clause_tries", "count"},
        {"interp.load_us", "us"},
        {"interp.solve_us", "us"},
        {"interp.host_ns_per_step", "ns"},
        {"micro.steps", "count"},
        {"interp.model_ns", "ns"},
        {"mem.stall_ns", "ns"},
        {"mem.cache_hit_pct", "%"},
        {"baseline.run_ms", "ms"},
        {"baseline.steps", "count"},
        {"tools.collect_ms", "ms"},
        {"tools.map_ms", "ms"},
        {"tools.pmms_ms", "ms"},
        {"service.queue_p50_us", "us"},
        {"service.queue_p95_us", "us"},
        {"service.exec_p50_us", "us"},
        {"service.setup_mean_us", "us"},
        {"service.solve_mean_us", "us"},
        {"service.cache_get_us", "us"},
        {"service.cache_misses", "count"},
        {"service.peak_queue_depth", "count"},
        {"sched.affinity_hit_ratio", "ratio"},
        {"sched.batches", "count"},
        {"sched.aged", "count"},
        {"net.encode_us", "us"},
        {"net.decode_us", "us"},
        {"net.submit_bytes", "bytes"},
        {"net.result_bytes", "bytes"},
        {"net.overhead_p50_us", "us"},
        {"net.refused", "count"},
        {"net.lost", "count"},
        {"router.affinity_hit_ratio", "ratio"},
        {"router.retried", "count"},
        {"router.refusals", "count"},
        {"router.ejections", "count"},
        {"client.setup_s", "s"},
        {"client.latency_p50_us", "us"},
        {"client.latency_p95_us", "us"},
        {"client.latency_p99_us", "us"},
        {"client.latency_p999_us", "us"},
        {"client.samples", "count"},
        {"client.goodput_rps", "1/s"},
        {"gen.late_mean_us", "us"},
        {"gen.late_max_us", "us"},
        {"host.steal_pct", "%"},
        {"host.ref_kernel_us", "us"},
        {"trace.queue_us", "us"},
        {"trace.setup_us", "us"},
        {"trace.solve_us", "us"},
        {"trace.encode_us", "us"},
        {"trace.reply_us", "us"},
        {"trace.decode_us", "us"},
        {"trace.send_us", "us"},
        {"trace.overhead_pct", "%"},
    };
    return defs;
}

void
fill(Report &report, const std::vector<MetricDef> &defs,
     const std::map<std::string, double> &values, bool requireAll)
{
    for (const MetricDef &d : defs) {
        auto it = values.find(d.name);
        if (it == values.end() && requireAll)
            psi::fatal("psibench: no value for metric ", d.name);
        report.add(d.name, it == values.end() ? 0.0 : it->second,
                   d.unit);
    }
}

} // namespace psibench
