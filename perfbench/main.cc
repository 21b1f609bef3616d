/**
 * @file
 * perfbench: the repository's benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--out-dir DIR] [--git-describe TEXT]
 *
 * Untraced (--trace 0): set up several times, each in a forked child
 * so it pays the one-time costs too (setup_s is the median),
 * then repeat the workload's rep for S seconds and report the
 * end-to-end metrics — host speed (sim_pps, medians over reps),
 * memory, and the modeled machine's cycles, ED^2F^2 and fallibility.
 *
 * Traced (--trace 1): half the time untraced, half through the
 * traced form of the same rep, then the replica loop and layer
 * probes; reports the per-layer metrics, the tracing overhead, and
 * writes the spans as Chrome trace-event JSON into --out-dir.
 *
 * Both modes check the outputs (golden runs clean, conservation,
 * DRAM stat partition, rep-to-rep and traced-vs-untraced identity,
 * a jobs-count determinism probe, replica identity) and print, as the
 * last line, one JSON object {correct, attempted, failed, metrics}.
 * The exit code is 1 when any check failed, 2 on bad arguments.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "stats.hh"
#include "trace.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".";
    std::string gitDescribe = "unknown";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR] "
                 "[--git-describe TEXT]\nworkloads:",
                 why);
    for (const std::string &w : workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = val;
            haveWorkload = true;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || *end || val[0] == '-')
                usage("--seed takes a non-negative integer");
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end || !(opt.seconds > 0.0) ||
                opt.seconds > 3600.0)
                usage("--seconds takes a number in (0, 3600]");
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
            opt.trace = val == "1";
        } else if (arg == "--out-dir") {
            opt.outDir = val;
        } else if (arg == "--git-describe") {
            opt.gitDescribe = val;
        } else {
            usage(("unknown option " + arg).c_str());
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    return opt;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** CPU seconds this process has used so far, all threads. */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

/** Run one rep and record the process CPU time it took. */
template <typename Fn>
Rep
timedRep(Fn &&fn)
{
    const double cpu0 = cpuSeconds();
    Rep rep = fn();
    rep.cpuS = cpuSeconds() - cpu0;
    return rep;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * Run @p fn in a forked child and return the number it yields, or a
 * negative value on failure. The child starts from this process's
 * state and leaves it untouched.
 */
template <typename Fn>
double
inChild(Fn &&fn)
{
    int fds[2];
    if (pipe(fds) != 0)
        return -1.0;
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid == 0) {
        close(fds[0]);
        const double v = fn();
        const bool sent = write(fds[1], &v, sizeof v) == sizeof v;
        _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    double v = -1.0;
    const bool got = pid > 0 && read(fds[0], &v, sizeof v) == sizeof v;
    close(fds[0]);
    int status = 0;
    const bool ok = pid > 0 && waitpid(pid, &status, 0) == pid &&
                    WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return got && ok ? v : -1.0;
}

/**
 * Forked set-ups per run; setup_s is their median. Each is timed in
 * a child that starts from this process's state before any set-up
 * ran, so every sample pays the one-time costs too (lazily built
 * tables such as the fault-immunity calibration). The child's CPU
 * clock is used: set-up is single-threaded, so this is its host time
 * less any time the host descheduled it.
 */
constexpr int kColdSetups = 41;

/**
 * Forked reps per run for peak_rss_mb, the median of their peak RSS.
 * A process's own peak grows with how its threads happened to spread
 * allocations over malloc arenas and how freed 8 MiB backing stores
 * fragment; one rep from the same starting state, taken three times,
 * shows the footprint of the simulation instead.
 */
constexpr int kRssReps = 3;

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Print one metric line for humans. */
void
show(const Metric &m)
{
    std::printf("  %-28s %-22.10g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    clumsy::setQuiet(true);

    Tracer tracer(opt.trace);
    Checks checks;
    Context ctx;
    ctx.seed = opt.seed;
    ctx.nproc = static_cast<unsigned>(
        std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
    ctx.tracer = &tracer;
    ctx.checks = &checks;

    const std::unique_ptr<Workload> wl = makeWorkload(opt.workload, ctx);
    if (!wl)
        usage(("unknown workload " + opt.workload).c_str());

    const Threads th = wl->threads();
    const std::string manifest =
        "{\"workload\":" + jsonString(opt.workload) +
        ",\"seed\":" + std::to_string(opt.seed) +
        ",\"seconds\":" + jsonNumber(opt.seconds) +
        ",\"trace\":" + (opt.trace ? "1" : "0") +
        ",\"nproc\":" + std::to_string(ctx.nproc) +
        ",\"threads\":{\"sweep_jobs\":" + std::to_string(th.sweepJobs) +
        ",\"chip_jobs\":" + std::to_string(th.chipJobs) +
        ",\"card_jobs\":" + std::to_string(th.cardJobs) +
        "},\"build_type\":" + jsonString(PERFBENCH_BUILD_TYPE) +
        ",\"cxx_flags\":" + jsonString(PERFBENCH_CXX_FLAGS) +
        ",\"compiler\":" + jsonString(PERFBENCH_COMPILER) +
        ",\"git_describe\":" + jsonString(opt.gitDescribe) +
        ",\"caches\":\"cold: every run builds fresh processors, so the "
        "modeled caches start empty\"}";
    std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    std::printf("manifest %s\n", manifest.c_str());
    std::printf("caches: cold — every run builds fresh processors, so "
                "the modeled caches start empty\n");
    std::fflush(stdout);

    const int root = tracer.begin("perfbench " + opt.workload);

    // Set-up: timed cold in forked children, then once in-process.
    std::vector<double> setupS, rssMb;
    {
        const ScopedSpan span(tracer, "setup", root);
        for (int i = 0; i < kColdSetups; ++i) {
            const double s = inChild([&] {
                const double start = cpuSeconds();
                wl->setup();
                return cpuSeconds() - start;
            });
            if (checks.expect(s >= 0.0, 0, "a forked set-up failed"))
                setupS.push_back(s);
        }
        wl->setup();
    }
    {
        const ScopedSpan span(tracer, "forked reps for peak RSS", root);
        for (int i = 0; i < kRssReps; ++i) {
            const double mb = inChild([&] {
                wl->run();
                return peakRssMb();
            });
            if (checks.expect(mb >= 0.0, 0, "a forked rep failed"))
                rssMb.push_back(mb);
        }
    }

    // The timed region.
    std::vector<Rep> plain, traced;
    Layers layers;
    for (const auto &[name, unit] : layerMetrics())
        layers[name] = 0.0;
    const double plainBudget = opt.trace ? opt.seconds / 2 : opt.seconds;
    const std::size_t minReps = 3;
    {
        const auto start = Clock::now();
        while (plain.size() < minReps || secondsSince(start) < plainBudget)
            plain.push_back(timedRep([&] { return wl->run(); }));
    }
    if (opt.trace) {
        const ScopedSpan span(tracer, "traced reps", root);
        const auto start = Clock::now();
        while (traced.size() < minReps ||
               secondsSince(start) < opt.seconds / 2)
            traced.push_back(timedRep(
                [&] { return wl->runTraced(layers, span.id()); }));
    }

    // Output checks over the reps.
    const Rep &ref = plain.front();
    for (std::size_t i = 1; i < plain.size(); ++i)
        checks.expect(plain[i].digest == ref.digest, plain[i].runs,
                      "rep " + std::to_string(i) +
                          " modeled outputs differ from rep 0");
    for (std::size_t i = 0; i < traced.size(); ++i)
        checks.expect(traced[i].digest == ref.digest, traced[i].runs,
                      "traced rep " + std::to_string(i) +
                          " modeled outputs differ from the untraced run");

    if (opt.trace) {
        const ScopedSpan span(tracer, "layers", root);
        wl->measureLayers(layers, span.id());
    }
    {
        const ScopedSpan span(tracer, "determinism probe", root);
        wl->probeDeterminism(plain.back());
    }
    tracer.end(root);

    // Host speed is taken on the process CPU clock: on a shared VM,
    // time the vCPUs are descheduled stretches the wall clock of the
    // threaded workloads (the card fabric's lock-step hand-offs most)
    // by several times, but is not charged as CPU time. The CPU clock
    // cannot see lost parallelism, though, so the wall-clock rate is
    // printed too, as the fastest rep's: descheduling only slows a
    // rep down, so the fastest one is the least disturbed.
    std::vector<double> pps, wallPps, cpu, tracedCpu;
    for (const Rep &r : plain) {
        pps.push_back(r.simPackets / r.cpuS);
        wallPps.push_back(r.simPackets / r.wallS);
        cpu.push_back(r.cpuS);
    }
    for (const Rep &r : traced)
        tracedCpu.push_back(r.cpuS);

    const double failedFrac =
        checks.attempted()
            ? static_cast<double>(checks.failed()) /
                  static_cast<double>(checks.attempted())
            : 0.0;
    std::vector<Metric> endToEnd = {
        {"sim_pps", median(pps), "pkt/cpu_s"},
        {"setup_s", median(setupS), "s"},
        {"peak_rss_mb", median(rssMb), "MB"},
        {"model_cycles_per_pkt", ref.model.cyclesPerPkt, "cycles"},
        {"model_rel_ed2f2", ref.model.relEd2f2, "ratio"},
        {"model_fallibility", ref.model.fallibility, "ratio"},
    };
    const std::vector<Metric> reportOnly = {
        {"failed_runs_frac", failedFrac, "frac"},
        {"model_error_frac", ref.model.errorFrac, "frac"},
        {"wall_pps_best", *std::max_element(wallPps.begin(), wallPps.end()),
         "pkt/s"},
        {"process_peak_rss_mb", peakRssMb(), "MB"},
    };
    if (opt.trace)
        layers["trace.overhead_frac"] = median(tracedCpu) / median(cpu) - 1.0;

    std::vector<Metric> emitted;
    if (opt.trace) {
        for (const auto &[name, unit] : layerMetrics())
            emitted.push_back({name, layers[name], unit});
    } else {
        emitted = endToEnd;
    }
    for (const Metric &m : emitted)
        checks.expect(std::isfinite(m.value), 0,
                      "metric " + m.name + " is not finite");

    std::printf("\n%s: %zu untraced reps", opt.workload.c_str(),
                plain.size());
    if (opt.trace)
        std::printf(", %zu traced reps", traced.size());
    std::printf("\n");
    std::printf("%s metrics:\n", opt.trace ? "per-layer" : "end-to-end");
    for (const Metric &m : emitted)
        show(m);
    std::printf("also reported:\n");
    for (const Metric &m : reportOnly)
        show(m);
    std::printf("rep CPU time: median %.6f s over %zu reps\n", median(cpu),
                cpu.size());
    if (!setupS.empty())
        std::printf("set-up CPU time: median %.6f s (min %.6f, max %.6f) "
                    "over %zu forked cold set-ups\n",
                    median(setupS),
                    *std::min_element(setupS.begin(), setupS.end()),
                    *std::max_element(setupS.begin(), setupS.end()),
                    setupS.size());
    std::printf("accuracy: %s\n", wl->accuracy().c_str());
    if (opt.workload == "card-dram")
        std::printf("note: card chips run in streaming (digest) mode, so "
                    "faulty packets are not compared one by one: "
                    "model_error_frac is 0 and fallibility 1 by "
                    "construction\n");

    if (opt.trace) {
        const std::string path = opt.outDir + "/trace-" + opt.workload +
                                 "-seed" + std::to_string(opt.seed) +
                                 ".json";
        const bool ok = tracer.writeChrome(path, manifest);
        checks.expect(ok, 0, "cannot write trace file " + path);
        std::printf("trace: %zu spans -> %s\n", tracer.size(),
                    path.c_str());
    }

    std::printf("checks: %llu runs attempted, %llu failed\n",
                static_cast<unsigned long long>(checks.attempted()),
                static_cast<unsigned long long>(checks.failed()));
    for (const std::string &f : checks.failures())
        std::printf("CHECK FAILED: %s\n", f.c_str());

    const bool correct = checks.failures().empty();
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(checks.attempted());
    json += ", \"failed\": " + std::to_string(checks.failed());
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < emitted.size(); ++i) {
        const Metric &m = emitted[i];
        json += (i ? ", " : "") + jsonString(m.name) + ": {\"value\": " +
                jsonNumber(std::isfinite(m.value) ? m.value : 0.0) +
                ", \"unit\": " + jsonString(m.unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}
