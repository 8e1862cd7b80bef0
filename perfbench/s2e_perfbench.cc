/**
 * @file
 * One repetition of one benchmark workload (see perfbench/README.md).
 *
 *   s2e_perfbench --workload fork_storm|ddt_pcnet|profs_url
 *                 --seed N --trace 0|1 --scratch DIR [--spans FILE]
 *
 * The process sets the workload up, explores it once, runs its output
 * checks and prints one JSON object on its last stdout line. Every
 * layer is timed from outside, around this file's own calls into the
 * library's public functions; the engine's phase profiler and counters
 * are read after each run(). With --trace 0 the phase profiler is off
 * and no spans are kept; with --trace 1 the profiler is on, per-layer
 * metrics are reported, and the spans recorded around each layer call
 * are written to --spans when the process ends.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/engine.hh"
#include "core/replay/replayer.hh"
#include "core/state.hh"
#include "expr/absint/analyzer.hh"
#include "guest/kernel.hh"
#include "guest/layout.hh"
#include "guest/workloads.hh"
#include "obs/profiler.hh"
#include "support/logging.hh"
#include "tools/ddt.hh"
#include "tools/profs.hh"
#include "vm/devices.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace s2e;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/**
 * In-memory span log: name, start, end and parent of every layer call
 * the benchmark makes, written out once when the process ends. Off in
 * timed runs, where open/close do nothing.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool on) : on_(on), origin_(Clock::now()) {}

    int
    open(const std::string &name)
    {
        if (!on_)
            return -1;
        int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({name, since(origin_), 0.0, parent});
        stack_.push_back(int(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int id)
    {
        if (!on_ || id < 0)
            return;
        spans_[size_t(id)].end = since(origin_);
        stack_.pop_back();
    }

    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{\"schema\":\"s2e.perfbench.spans.v1\",\"spans\":[";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\""
                << s.name << "\",\"start_s\":" << strprintf("%.9f", s.start)
                << ",\"end_s\":" << strprintf("%.9f", s.end)
                << ",\"parent\":" << s.parent << "}";
        }
        out << "\n]}\n";
        return bool(out);
    }

  private:
    struct Span {
        std::string name;
        double start;
        double end;
        int parent;
    };
    bool on_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Times one layer call: always into a seconds accumulator, and as a
 *  span when tracing. */
class Timed
{
  public:
    Timed(SpanLog &log, const std::string &name, double &acc)
        : log_(log), acc_(acc), id_(log.open(name)), t0_(Clock::now())
    {
    }
    ~Timed()
    {
        acc_ += since(t0_);
        log_.close(id_);
    }
    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

  private:
    SpanLog &log_;
    double &acc_;
    int id_;
    Clock::time_point t0_;
};

/** What one repetition reports besides the process-level timings. */
struct Outcome {
    double setupSeconds = 0;  ///< assembly + tool/engine construction
    double probeSeconds = 0;  ///< traced-only assembly probes (not work)
    uint64_t attempted = 0;   ///< paths explored + witnesses replayed
    uint64_t failed = 0;
    std::vector<std::pair<std::string, bool>> checks;
    std::map<std::string, double> layers;
    bool phasesWithinBusy = true;

    void
    check(const std::string &name, bool ok)
    {
        checks.emplace_back(name, ok);
    }
};

/** Phase seconds and engine/solver counters of one exploration. */
struct EngineSnapshot {
    std::array<double, obs::kNumPhases> phase{};
    /** Symbolic-execution spans: micro-ops that built an expression. */
    uint64_t symbolicSpans = 0;
    std::map<std::string, uint64_t> counters;
    std::map<std::string, double> timers;
};

EngineSnapshot
snapshot(core::Engine &engine)
{
    EngineSnapshot s;
    for (size_t i = 0; i < obs::kNumPhases; ++i)
        s.phase[i] = engine.profiler().seconds(obs::Phase(i));
    s.symbolicSpans =
        engine.profiler().stat(obs::Phase::SymbolicExec).spans;
    for (const char *k :
         {"engine.translations", "engine.uops_executed",
          "engine.max_active_states",
          "engine.memory_high_watermark"})
        s.counters[k] = engine.stats().get(k);
    Stats &ss = engine.solver().stats();
    for (const char *k :
         {"solver.queries", "solver.sat_queries", "absint.static_prunes",
          "solver.model_cache_hits", "solver.ctx_reuses"})
        s.counters[k] = ss.get(k);
    for (const char *k :
         {"solver.time", "solver.sat_time", "solver.simplify_time"})
        s.timers[k] = ss.seconds(k);
    return s;
}

double
phaseSeconds(const EngineSnapshot &s, obs::Phase p)
{
    return s.phase[size_t(p)];
}

/**
 * Adds one exploration's per-layer metrics to `out`; finishLayers()
 * then derives the ratios. Pool phase times are worker-seconds, and
 * core.unspanned_s is the busy worker-seconds no phase claimed, so
 *   Σ phase seconds + core.unspanned_s + core.idle_s
 *     = run() wall × workers.
 */
void
recordExploration(Outcome &out, const EngineSnapshot &s,
                  const core::RunResult &r, double run_seconds)
{
    auto &L = out.layers;
    unsigned workers = std::max(1u, r.workers);
    double busy = r.wallSeconds;
    if (!r.workerBusySeconds.empty()) {
        busy = 0;
        for (double b : r.workerBusySeconds)
            busy += b;
    }
    double phases = 0;
    for (double p : s.phase)
        phases += p;
    // The phase profiler may never claim more worker-seconds than the
    // workers were busy (the > 1.0 share defect this guards against).
    out.phasesWithinBusy =
        out.phasesWithinBusy && phases <= busy * 1.001 + 1e-4;

    auto max_into = [&L](const char *key, double v) {
        L[key] = std::max(L[key], v);
    };
    L["core.run_s"] += run_seconds;
    L["core.run_worker_s"] += run_seconds * workers;
    L["core.busy_s"] += busy;
    L["core.idle_s"] += std::max(0.0, r.wallSeconds * workers - busy);
    L["core.unspanned_s"] += busy - phases;
    L["core.phase_s"] += phases;
    L["core.paths"] += double(r.statesCreated);
    L["core.forks"] += double(r.forks);
    L["core.fork_s"] += phaseSeconds(s, obs::Phase::Fork);
    max_into("core.max_active_states",
             double(s.counters.at("engine.max_active_states")));

    L["dbt.translate_s"] += phaseSeconds(s, obs::Phase::Translate);
    L["dbt.translations"] += double(s.counters.at("engine.translations"));
    L["dbt.concrete_s"] += phaseSeconds(s, obs::Phase::ConcreteExec);
    L["dbt.instructions"] += double(r.totalInstructions);
    L["dbt.uops_executed"] +=
        double(s.counters.at("engine.uops_executed"));

    L["expr.symbolic_s"] += phaseSeconds(s, obs::Phase::SymbolicExec);
    L["expr.symbolic_values"] += double(s.symbolicSpans);

    double time = s.timers.at("solver.time");
    double sat = s.timers.at("solver.sat_time");
    double simplify = s.timers.at("solver.simplify_time");
    L["solver.phase_s"] += phaseSeconds(s, obs::Phase::Solver);
    L["solver.time_s"] += time;
    L["solver.sat_s"] += sat;
    L["solver.simplify_s"] += simplify;
    L["solver.other_s"] += time - sat - simplify;
    L["solver.queries"] += double(s.counters.at("solver.queries"));
    L["solver.sat_queries"] += double(s.counters.at("solver.sat_queries"));
    L["solver.static_prunes"] +=
        double(s.counters.at("absint.static_prunes"));
    L["solver.model_cache_hits"] +=
        double(s.counters.at("solver.model_cache_hits"));
    L["solver.ctx_reuses"] += double(s.counters.at("solver.ctx_reuses"));

    L["lifecycle.states_spilled"] += double(r.statesSpilled);
    L["lifecycle.states_restored"] += double(r.statesRestored);
    L["lifecycle.spill_bytes"] += double(r.spillBytes);
    L["lifecycle.states_merged"] += double(r.mergedStates);
    max_into("lifecycle.mem_watermark_bytes",
             double(s.counters.at("engine.memory_high_watermark")));
}

/** Ratios over the summed explorations, and the accounting check. */
void
finishLayers(Outcome &out)
{
    auto &L = out.layers;
    double pool = L["core.busy_s"] + L["core.idle_s"];
    L["core.worker_idle_frac"] = pool > 0 ? L["core.idle_s"] / pool : 0.0;
    L["core.phase_share"] =
        L["core.busy_s"] > 0 ? L["core.phase_s"] / L["core.busy_s"] : 0.0;
    L["solver.sat_query_frac"] =
        L["solver.queries"] > 0
            ? L["solver.sat_queries"] / L["solver.queries"]
            : 0.0;
    out.check("phase_seconds_within_busy_worker_seconds",
              out.phasesWithinBusy);
}

/** Failed paths of one exploration (solver, spill and witness
 *  extraction failures). */
uint64_t
failedPaths(const core::RunResult &r)
{
    return r.solverFailures + r.spillFailures + r.witnessExtractFailures;
}

// --- fork_storm --------------------------------------------------------

constexpr unsigned kStormBits = 12;    // 2^12 storm paths
constexpr unsigned kStormWorkers = 4;  // the worker pool size
constexpr uint64_t kStormCapFootprints = 3;

/** The 2^bits-path fork storm of bench/bench_fork_storm.cc, with its
 *  8-way s2e_merge prologue. */
std::string
stormSource(unsigned bits)
{
    std::string src = R"(
        .entry main
    main:
        movi sp, 0x8000
        s2e_symreg r1
        movi r5, 0
        testi r1, 1
        jeq m0
        ori r5, 1
    m0: testi r1, 2
        jeq m1
        ori r5, 2
    m1: testi r1, 4
        jeq m2
        ori r5, 4
    m2: s2e_merge
        s2e_symreg r2
        movi r6, 0
)";
    for (unsigned b = 0; b < bits; ++b)
        src += strprintf("        testi r2, %u\n"
                         "        jeq b%u\n"
                         "        ori r6, %u\n"
                         "    b%u:\n",
                         1u << b, b, 1u << b, b);
    // Re-tests of taken conditions and a masked bound check: branches
    // every path crosses that never fork, decided without SAT calls.
    for (unsigned b = 0; b < bits && b < 3; ++b)
        src += strprintf("        testi r2, %u\n"
                         "        jeq r%u\n"
                         "        ori r7, %u\n"
                         "    r%u:\n",
                         1u << b, b, 1u << b, b);
    src += R"(
        mov r8, r2
        andi r8, 255
        cmpi r8, 256
        jb masked
        movi r7, 99
    masked:
        movi r3, 0
        movi r4, 0
    work:
        add r3, r6
        addi r4, 1
        cmpi r4, 6
        jne work
        hlt
    )";
    return src;
}

Outcome
runForkStorm(SpanLog &log, bool trace, const std::string &scratch)
{
    Outcome out;
    double assemble_s = 0, build_s = 0, run_s = 0;

    vm::MachineConfig machine;
    machine.ramSize = 64 * 1024;
    {
        Timed t(log, "isa.assemble", assemble_s);
        machine.program = isa::assemble(stormSource(kStormBits));
    }
    machine.deviceSetup = [](vm::DeviceSet &devices) {
        devices.add(std::make_unique<vm::ConsoleDevice>());
    };

    std::unique_ptr<core::Engine> engine;
    {
        Timed t(log, "core.build", build_s);
        vm::DeviceSet devices;
        machine.deviceSetup(devices);
        core::ExecutionState probe(machine.ramSize, devices);
        core::EngineConfig config;
        config.numWorkers = kStormWorkers;
        config.maxResidentBytes = kStormCapFootprints *
                                  probe.memoryFootprint();
        config.enableMergePoints = true;
        config.spillDir = scratch + "/spill";
        config.profileExecution = trace;
        engine = std::make_unique<core::Engine>(std::move(machine), config);
    }
    out.setupSeconds = assemble_s + build_s;

    core::RunResult r;
    {
        Timed t(log, "core.run", run_s);
        r = engine->run();
    }
    if (trace)
        recordExploration(out, snapshot(*engine), r, run_s);
    out.layers["isa.assemble_s"] = assemble_s;
    out.layers["core.build_s"] = build_s;

    size_t storm_paths = size_t(1) << kStormBits;
    out.attempted = r.statesCreated;
    out.failed = failedPaths(r);
    out.check("completed_paths_4096", r.completed == storm_paths);
    out.check("states_merged_7", r.mergedStates == 7);
    out.check("spilled_equals_restored",
              r.statesSpilled > 0 && r.statesSpilled == r.statesRestored);
    out.check("no_spill_failures", r.spillFailures == 0);
    out.check("no_budget_exhaustion", !r.budgetExhausted);
    return out;
}

// --- ddt_pcnet ---------------------------------------------------------

constexpr size_t kDdtStates = 256;
/** Explorations per repetition, each with its own searcher seed: how
 *  wide the Random searcher's frontier grows, and with it the cost of a
 *  run, varies from seed to seed, and several seeds average it out. */
constexpr uint64_t kDdtExplorations = 4;
constexpr uint64_t kDefaultSeed = 42;

/** Bug classes DDT+ reports on the pcnet analog at the default seed. */
const std::set<std::string> kDefaultSeedClasses = {
    "data-race", "double-free", "kernel-panic", "leak", "null-deref"};

/** Every bug class seeded into the DMA and PIO drivers
 *  (guest/drivers.hh), plus the kernel panic a wild access ends in. */
const std::set<std::string> kSeededClasses = {
    "data-race", "double-free", "kernel-panic", "leak",
    "null-deref", "overflow",   "use-after-free"};

/** May-overflow reports (a symbolic pointer *can* escape) are not
 *  constrained into the witness model, so replay need not re-detect
 *  them; bench/bench_ddt_bugs.cc excludes them the same way. */
bool
isMayReport(const tools::DdtBug &bug)
{
    return bug.message.find("can escape its bounds") != std::string::npos;
}

tools::DdtConfig
ddtConfig(uint64_t seed)
{
    tools::DdtConfig c;
    c.driver = guest::DriverKind::Dma;
    c.model = core::ConsistencyModel::Lc;
    c.annotations = true;
    c.maxStates = kDdtStates;
    // The work is pinned by the state budget alone.
    c.maxInstructions = 0;
    c.maxWallSeconds = 0;
    c.searcherSeed = seed;
    c.numWorkers = 1;
    c.emitWitnesses = true;
    return c;
}

/** Running totals over a repetition's explorations and replays. */
struct DdtTally {
    double assembleSeconds = 0, buildSeconds = 0;
    double replayRunSeconds = 0;
    uint64_t replayInstructions = 0;
    size_t replayed = 0, divergences = 0, missingWitness = 0;
    size_t wrongPc = 0, solverQueries = 0, notRedetected = 0;
    size_t explorationsWithoutBugs = 0, underBudget = 0;
    std::set<std::string> classes; ///< union over explorations
};

/** One DDT+ exploration with `searcher_seed`, then a solver-free replay
 *  of every bug-path witness, one tool per witness. Returns the bug
 *  classes the exploration found. */
std::set<std::string>
exploreDdt(SpanLog &log, bool trace, uint64_t searcher_seed, Outcome &out,
           DdtTally &t)
{
    // Ddt assembles its guest inside its constructor; a traced run
    // times the same public call (tools::driverProgram) beside it so
    // isa.assemble_s shows the assembly share of each construction.
    auto probe_assembly = [&] {
        if (!trace)
            return;
        double probe = 0;
        {
            Timed span(log, "isa.assemble", probe);
            isa::Program p = tools::driverProgram(guest::DriverKind::Dma);
            (void)p;
        }
        t.assembleSeconds += probe;
        out.probeSeconds += probe;
    };

    double explore_s = 0;
    Timed exploration(log, "ddt.exploration", explore_s);
    probe_assembly();
    std::unique_ptr<tools::Ddt> ddt;
    {
        Timed span(log, "core.build", t.buildSeconds);
        ddt = std::make_unique<tools::Ddt>(ddtConfig(searcher_seed));
        ddt->engine().profiler().setEnabled(trace);
    }
    tools::DdtResult result;
    double run_s = 0;
    {
        Timed span(log, "core.run", run_s);
        result = ddt->run();
    }
    const core::RunResult &r = result.run;
    if (trace)
        recordExploration(out, snapshot(ddt->engine()), r, run_s);
    out.attempted += r.statesCreated;
    out.failed += failedPaths(r);
    t.underBudget += r.statesCreated < kDdtStates ? 1 : 0;
    t.classes.insert(result.bugKinds.begin(), result.bugKinds.end());

    // Bug paths: every crashing path and every path with a concrete
    // (non-may) bug report.
    std::map<int, std::string> path_of;
    for (const auto &s : ddt->engine().allStates())
        path_of[s->id()] = s->pathId();
    std::map<std::string, uint32_t> crash_pc;
    for (const auto &c : ddt->bugCheck().crashes())
        if (c.kind == "kernel-panic" || c.kind == "crash")
            crash_pc.emplace(path_of[c.stateId], c.pc);
    std::map<std::string, std::set<std::string>> reports;
    for (const auto &b : result.bugs)
        if (!isMayReport(b))
            reports[path_of[b.stateId]].insert(b.kind);
    std::set<std::string> bug_paths;
    for (const auto &[path, pc] : crash_pc)
        bug_paths.insert(path);
    for (const auto &[path, kinds] : reports)
        bug_paths.insert(path);
    t.explorationsWithoutBugs += bug_paths.empty() ? 1 : 0;

    std::map<std::string, std::shared_ptr<const core::replay::Witness>>
        witness_of;
    for (const auto &w : ddt->engine().witnesses())
        witness_of[w->pathId] = w;

    for (const std::string &path : bug_paths) {
        auto it = witness_of.find(path);
        if (it == witness_of.end()) {
            t.missingWitness++;
            out.failed++;
            continue;
        }
        tools::DdtConfig rc = ddtConfig(searcher_seed);
        rc.emitWitnesses = false;
        rc.replayWitness = it->second;
        probe_assembly();
        std::unique_ptr<tools::Ddt> replay;
        {
            Timed span(log, "replay.build", t.buildSeconds);
            replay = std::make_unique<tools::Ddt>(rc);
            replay->engine().profiler().setEnabled(false);
        }
        tools::DdtResult rr;
        {
            Timed span(log, "replay.run", t.replayRunSeconds);
            rr = replay->run();
        }
        core::replay::ReplayResult v =
            core::replay::replayVerdict(replay->engine());
        t.replayed++;
        out.attempted++;
        t.replayInstructions += rr.run.totalInstructions;
        t.solverQueries += v.solverQueries;
        if (!v.ok) {
            t.divergences++;
            out.failed++;
            std::fprintf(stderr, "replay divergence on %s: %s\n",
                         path.c_str(), v.divergence.c_str());
            continue;
        }
        auto crash = crash_pc.find(path);
        uint32_t want_pc = crash != crash_pc.end()
                               ? crash->second
                               : it->second->terminalPc;
        t.wrongPc += v.terminalPc != want_pc ? 1 : 0;
        std::set<std::string> kinds;
        for (const auto &b : rr.bugs)
            kinds.insert(b.kind);
        auto rep = reports.find(path);
        if (rep != reports.end())
            for (const auto &k : rep->second)
                t.notRedetected += kinds.count(k) ? 0 : 1;
    }
    return result.bugKinds;
}

Outcome
runDdtPcnet(SpanLog &log, bool trace, uint64_t seed)
{
    Outcome out;
    DdtTally t;
    // Exploration 0 uses --seed itself; the others derive from it.
    std::set<std::string> first_classes;
    for (uint64_t i = 0; i < kDdtExplorations; ++i) {
        auto classes = exploreDdt(log, trace,
                                  seed + i * 0x9E3779B97F4A7C15ULL, out, t);
        if (i == 0)
            first_classes = classes;
    }

    out.setupSeconds = t.buildSeconds;
    auto &L = out.layers;
    L["isa.assemble_s"] = t.assembleSeconds;
    L["core.build_s"] = t.buildSeconds;
    L["replay.witnesses"] = double(t.replayed);
    L["replay.run_s"] = t.replayRunSeconds;
    L["replay.instr_per_s"] =
        t.replayRunSeconds > 0
            ? double(t.replayInstructions) / t.replayRunSeconds
            : 0.0;
    L["replay.divergences"] = double(t.divergences);

    bool subset = std::includes(kSeededClasses.begin(),
                                kSeededClasses.end(), t.classes.begin(),
                                t.classes.end());
    out.check("bug_classes_within_seeded_set", subset);
    bool default_ok =
        seed != kDefaultSeed || first_classes == kDefaultSeedClasses;
    if (seed == kDefaultSeed)
        out.check("bug_classes_equal_default_seed_record", default_ok);
    if (!subset || !default_ok) {
        std::fprintf(stderr, "bug classes found:");
        for (const auto &k : t.classes)
            std::fprintf(stderr, " %s", k.c_str());
        std::fprintf(stderr, "\n");
    }
    out.check("bug_paths_found", t.explorationsWithoutBugs == 0);
    out.check("every_bug_path_has_witness", t.missingWitness == 0);
    out.check("replays_without_divergence", t.divergences == 0);
    out.check("replays_end_at_recorded_pc", t.wrongPc == 0);
    out.check("replays_issue_no_solver_queries", t.solverQueries == 0);
    out.check("replays_redetect_bug_reports", t.notRedetected == 0);
    out.check("state_budget_reached", t.underBudget == 0);
    return out;
}

// --- profs_url ---------------------------------------------------------

constexpr unsigned kUrlSymbolicChars = 8;
constexpr size_t kUrlPaths = 2142;
constexpr uint64_t kInstrPerSlash = 10;

Outcome
runProfsUrl(SpanLog &log, bool trace)
{
    Outcome out;
    double assemble_s = 0, build_s = 0;

    // profileUrlParser's machine, assembled here so the assembly is
    // timed by its own call.
    vm::MachineConfig machine;
    machine.ramSize = guest::kRamSize;
    {
        Timed t(log, "isa.assemble", assemble_s);
        machine.program =
            isa::assemble(guest::kernelSource() + guest::urlParserSource());
    }
    machine.deviceSetup = [](vm::DeviceSet &devices) {
        devices.add(std::make_unique<vm::ConsoleDevice>());
    };

    tools::ProfsConfig config;
    // The work is pinned by exhaustion; the state budget is a
    // guard that the check below requires not to trip.
    config.maxInstructions = 0;
    config.maxWallSeconds = 0;

    // The tool owns its engine: construction is timed from the call to
    // the end of the setup callback, and the engine's profiler and
    // counters are read through the callback's Engine& at every path
    // termination, the last of which ends the exploration.
    EngineSnapshot snap;
    int build_span = log.open("core.build");
    int run_span = -1;
    auto t0 = Clock::now();
    Clock::time_point run_start;
    auto setup = [&](core::Engine &engine) {
        engine.profiler().setEnabled(trace);
        auto &state = engine.initialState();
        auto &bld = engine.builder();
        uint32_t addr = guest::kUrlBuffer;
        for (const char *p = "http://"; *p; ++p)
            state.mem.write(addr++, core::Value(uint32_t(*p)), 1, bld);
        engine.makeMemSymbolic(state, addr, kUrlSymbolicChars, "url");
        state.mem.write(addr + kUrlSymbolicChars, core::Value(0u), 1, bld);
        if (trace)
            engine.events().onStateKill.subscribe(
                [&snap, &engine](core::ExecutionState &) {
                    snap = snapshot(engine);
                });
        build_s = since(t0);
        log.close(build_span);
        run_span = log.open("core.run");
        run_start = Clock::now();
    };
    tools::ProfsReport report = tools::profileMachine(
        config, std::move(machine), {{guest::kAppCode, guest::kAppCodeEnd}},
        setup);
    double run_s = since(run_start);
    log.close(run_span);
    const core::RunResult &r = report.run;
    out.setupSeconds = assemble_s + build_s;
    if (trace)
        recordExploration(out, snap, r, run_s);
    out.layers["isa.assemble_s"] = assemble_s;
    out.layers["core.build_s"] = build_s;

    // Cost envelope by '/' count (the parser reports it via s2e_out):
    // the most expensive path per count must grow by exactly
    // kInstrPerSlash per extra '/'.
    std::map<uint32_t, uint64_t> max_by_slashes;
    for (const auto &p : report.paths) {
        if (p.status != core::StateStatus::Halted)
            continue;
        auto it = report.guestOutputs.find(p.stateId);
        if (it == report.guestOutputs.end() || it->second > 100)
            continue; // rejected URLs report 0xFFFFFFFF
        uint64_t &slot = max_by_slashes[it->second];
        slot = std::max(slot, p.instructions);
    }
    bool marginal = max_by_slashes.size() >= 2;
    uint64_t prev = 0;
    for (const auto &[slashes, instr] : max_by_slashes) {
        if (prev && instr != prev + kInstrPerSlash)
            marginal = false;
        prev = instr;
    }

    out.attempted = r.statesCreated;
    out.failed = failedPaths(r);
    out.check("paths_2142", r.statesCreated == kUrlPaths);
    out.check("all_paths_completed", r.completed == kUrlPaths);
    out.check("marginal_cost_10_instr_per_slash", marginal);
    out.check("no_budget_exhaustion", !r.budgetExhausted);
    return out;
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: s2e_perfbench --workload fork_storm|ddt_pcnet|"
                 "profs_url --seed N --trace 0|1 --scratch DIR "
                 "[--spans FILE]\n");
    std::exit(2);
}

std::string
jsonNumber(double v)
{
    return strprintf("%.17g", v);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, scratch, spans_path;
    uint64_t seed = 0;
    bool have_seed = false;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        const char *val = argv[i + 1];
        if (key == "--workload")
            workload = val;
        else if (key == "--seed") {
            seed = std::strtoull(val, nullptr, 10);
            have_seed = true;
        } else if (key == "--trace")
            trace = std::atoi(val);
        else if (key == "--scratch")
            scratch = val;
        else if (key == "--spans")
            spans_path = val;
        else
            usage();
    }
    if (workload.empty() || !have_seed || (trace != 0 && trace != 1) ||
        scratch.empty() || argc % 2 == 0)
        usage();

    // A Debug build turns verifyAbsint / verifyTb on and measures a
    // different program.
#ifndef NDEBUG
    std::fprintf(stderr, "s2e_perfbench: refusing a build without NDEBUG "
                         "(build type %s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
#endif
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0 ||
        expr::absint::kAbsintVerifyDefault || dbt::tbVerifyDefault()) {
        std::fprintf(stderr, "s2e_perfbench: refusing a Debug build\n");
        return 3;
    }

    SpanLog log(trace == 1);
    double cpu0 = processCpuSeconds();
    auto t0 = Clock::now();
    Outcome out;
    {
        double total_s = 0;
        Timed root(log, workload, total_s);
        if (workload == "fork_storm")
            out = runForkStorm(log, trace == 1, scratch);
        else if (workload == "ddt_pcnet")
            out = runDdtPcnet(log, trace == 1, seed);
        else if (workload == "profs_url")
            out = runProfsUrl(log, trace == 1);
        else
            usage();
    }
    if (trace == 1)
        finishLayers(out);
    double wall = since(t0) - out.probeSeconds;
    double cpu = processCpuSeconds() - cpu0;

    if (trace == 1 && !spans_path.empty() && !log.write(spans_path)) {
        std::fprintf(stderr, "s2e_perfbench: cannot write %s\n",
                     spans_path.c_str());
        return 4;
    }

    std::string json = "{\"workload\":\"" + workload + "\"";
    json += ",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"";
    json += ",\"wall_s\":" + jsonNumber(wall);
    json += ",\"cpu_s\":" + jsonNumber(cpu);
    json += ",\"peak_rss_mb\":" + jsonNumber(peakRssMb());
    json += ",\"setup_s\":" + jsonNumber(out.setupSeconds);
    json += ",\"attempted\":" + std::to_string(out.attempted);
    json += ",\"failed\":" + std::to_string(out.failed);
    json += ",\"checks\":{";
    for (size_t i = 0; i < out.checks.size(); ++i)
        json += (i ? ",\"" : "\"") + out.checks[i].first +
                "\":" + (out.checks[i].second ? "true" : "false");
    json += "},\"layers\":{";
    bool first = true;
    for (const auto &[name, value] : out.layers) {
        json += (first ? "\"" : ",\"") + name + "\":" + jsonNumber(value);
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
