#include "sweep/sink.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "sweep/json.hh"

namespace clumsy::sweep
{

namespace
{

// --- serialization ---------------------------------------------------

void
writeRunMetrics(JsonWriter &w, const core::RunMetrics &m)
{
    w.beginObject();
    w.key("packets_attempted").value(m.packetsAttempted);
    w.key("packets_processed").value(m.packetsProcessed);
    w.key("packets_with_error").value(m.packetsWithError);
    w.key("fatal").value(m.fatal);
    w.key("fatal_reason").value(m.fatalReason);
    w.key("cycles_per_packet").value(m.cyclesPerPacket);
    w.key("energy_per_packet_pj").value(m.energyPerPacketPj);
    w.key("total_energy_pj").value(m.totalEnergyPj);
    w.key("l1d_energy_pj").value(m.l1dEnergyPj);
    w.key("instructions").value(m.instructions);
    w.key("dcache_accesses").value(m.dcacheAccesses);
    w.key("dcache_miss_rate").value(m.dcacheMissRate);
    w.key("faults_injected").value(m.faultsInjected);
    w.key("parity_trips").value(m.parityTrips);
    w.key("ecc_corrections").value(m.eccCorrections);
    w.key("freq_switches").value(m.freqSwitches);
    // Elided at zero so pre-ctrl documents and rate-0 runs serialize
    // byte-identically to what earlier versions wrote.
    if (m.ctrlEventsApplied != 0)
        w.key("ctrl_events_applied").value(m.ctrlEventsApplied);
    w.key("errors_by_type").beginObject();
    for (const auto &kv : m.errorsByType)
        w.key(kv.first).value(kv.second);
    w.endObject();
    w.endObject();
}

void
writeChipMetrics(JsonWriter &w, const npu::ChipMetrics &m)
{
    w.beginObject();
    w.key("makespan_cycles").value(m.makespanCycles);
    w.key("throughput_pps").value(m.throughputPps);
    w.key("load_imbalance").value(m.loadImbalance);
    w.key("queue_occ_mean").value(m.queueOccMean);
    w.key("queue_occ_max").value(m.queueOccMax);
    w.key("drops_queue_full").value(m.dropsQueueFull);
    w.key("drops_dead_pe").value(m.dropsDeadPe);
    w.key("backpressure_stalls").value(m.backpressureStalls);
    w.key("l2_port_waits").value(m.l2PortWaits);
    w.key("l2_port_wait_cycles").value(m.l2PortWaitCycles);
    w.key("cross_engine_hits").value(m.crossEngineHits);
    w.key("cross_engine_hit_fraction").value(m.crossEngineHitFraction);
    w.key("l2_evictions_by_other").value(m.l2EvictionsByOther);
    w.key("mshr_merges").value(m.mshrMerges);
    w.key("chip_edf").value(m.chipEdf);
    w.key("pe_utilization").beginArray();
    for (double v : m.peUtilization)
        w.value(v);
    w.endArray();
    w.key("pe_packets").beginArray();
    for (double v : m.pePackets)
        w.value(v);
    w.endArray();
    w.key("pe_l2_hits").beginArray();
    for (double v : m.peL2Hits)
        w.value(v);
    w.endArray();
    w.key("pe_l2_misses").beginArray();
    for (double v : m.peL2Misses)
        w.value(v);
    w.endArray();
    w.key("pe_cr_final").beginArray();
    for (double v : m.peCrFinal)
        w.value(v);
    w.endArray();
    w.key("pe_cr_mean").beginArray();
    for (double v : m.peCrMean)
        w.value(v);
    w.endArray();
    w.key("pe_epochs").beginArray();
    for (double v : m.peEpochs)
        w.value(v);
    w.endArray();
    w.key("pe_steps_up").beginArray();
    for (double v : m.peStepsUp)
        w.value(v);
    w.endArray();
    w.key("pe_steps_down").beginArray();
    for (double v : m.peStepsDown)
        w.value(v);
    w.endArray();
    w.endObject();
}

void
writeCardMetrics(JsonWriter &w, const linecard::CardMetrics &m)
{
    w.beginObject();
    w.key("makespan_cycles").value(m.makespanCycles);
    w.key("throughput_pps").value(m.throughputPps);
    w.key("load_imbalance").value(m.loadImbalance);
    w.key("packets_processed").value(m.packetsProcessed);
    w.key("ingress_drops").value(m.ingressDrops);
    w.key("dram_accesses").value(m.dramAccesses);
    w.key("dram_row_hits").value(m.dramRowHits);
    w.key("dram_row_misses").value(m.dramRowMisses);
    w.key("dram_row_conflicts").value(m.dramRowConflicts);
    w.key("dram_row_hit_fraction").value(m.dramRowHitFraction);
    w.key("dram_stall_cycles").value(m.dramStallCycles);
    w.key("chip_packets").beginArray();
    for (double v : m.chipPackets)
        w.value(v);
    w.endArray();
    w.key("chip_makespan_cycles").beginArray();
    for (double v : m.chipMakespanCycles)
        w.value(v);
    w.endArray();
    w.endObject();
}

std::string
cellJson(const CellOutcome &out, bool provenance)
{
    JsonWriter w;
    w.beginObject();
    w.key("key").value(out.cell.key());
    writeAxisFields(w, out.cell);
    w.key("result").raw(experimentResultJson(out.result));
    if (out.hasNpu) {
        w.key("npu").beginObject();
        w.key("golden");
        writeChipMetrics(w, out.npuGolden);
        w.key("faulty");
        writeChipMetrics(w, out.npuFaulty);
        w.endObject();
    }
    if (out.hasCard) {
        w.key("card").beginObject();
        w.key("golden");
        writeCardMetrics(w, out.cardGolden);
        w.key("faulty");
        writeCardMetrics(w, out.cardFaulty);
        w.endObject();
    }
    if (provenance)
        w.key("wall_ms").value(out.wallMs);
    w.endObject();
    return w.str();
}

core::RunMetrics
parseRunMetrics(const JVal &o)
{
    core::RunMetrics m;
    m.packetsAttempted = u64Field(o, "packets_attempted");
    m.packetsProcessed = u64Field(o, "packets_processed");
    m.packetsWithError = u64Field(o, "packets_with_error");
    m.fatal = boolField(o, "fatal");
    m.fatalReason = strField(o, "fatal_reason");
    m.cyclesPerPacket = numField(o, "cycles_per_packet");
    m.energyPerPacketPj = numField(o, "energy_per_packet_pj");
    m.totalEnergyPj = numField(o, "total_energy_pj");
    m.l1dEnergyPj = numField(o, "l1d_energy_pj");
    m.instructions = u64Field(o, "instructions");
    m.dcacheAccesses = u64Field(o, "dcache_accesses");
    m.dcacheMissRate = numField(o, "dcache_miss_rate");
    m.faultsInjected = u64Field(o, "faults_injected");
    m.parityTrips = u64Field(o, "parity_trips");
    m.eccCorrections = u64Field(o, "ecc_corrections");
    m.freqSwitches = u64Field(o, "freq_switches");
    if (o.find("ctrl_events_applied"))
        m.ctrlEventsApplied = u64Field(o, "ctrl_events_applied");
    for (const auto &kv : field(o, "errors_by_type").obj)
        m.errorsByType[kv.first] =
            static_cast<std::uint64_t>(kv.second.num);
    return m;
}

npu::ChipMetrics
parseChipMetrics(const JVal &o)
{
    npu::ChipMetrics m;
    m.makespanCycles = numField(o, "makespan_cycles");
    m.throughputPps = numField(o, "throughput_pps");
    m.loadImbalance = numField(o, "load_imbalance");
    m.queueOccMean = numField(o, "queue_occ_mean");
    m.queueOccMax = numField(o, "queue_occ_max");
    m.dropsQueueFull = numField(o, "drops_queue_full");
    m.dropsDeadPe = numField(o, "drops_dead_pe");
    m.backpressureStalls = numField(o, "backpressure_stalls");
    m.l2PortWaits = numField(o, "l2_port_waits");
    m.l2PortWaitCycles = numField(o, "l2_port_wait_cycles");
    // Shared-L2 counters: absent in chip documents written before the
    // shared-contents model existed.
    if (o.find("cross_engine_hits"))
        m.crossEngineHits = numField(o, "cross_engine_hits");
    if (o.find("cross_engine_hit_fraction"))
        m.crossEngineHitFraction =
            numField(o, "cross_engine_hit_fraction");
    if (o.find("l2_evictions_by_other"))
        m.l2EvictionsByOther = numField(o, "l2_evictions_by_other");
    if (o.find("mshr_merges"))
        m.mshrMerges = numField(o, "mshr_merges");
    m.chipEdf = numField(o, "chip_edf");
    for (const JVal &v : field(o, "pe_utilization").arr)
        m.peUtilization.push_back(v.num);
    for (const JVal &v : field(o, "pe_packets").arr)
        m.pePackets.push_back(v.num);
    if (const JVal *a = o.find("pe_l2_hits"))
        for (const JVal &v : a->arr)
            m.peL2Hits.push_back(v.num);
    if (const JVal *a = o.find("pe_l2_misses"))
        for (const JVal &v : a->arr)
            m.peL2Misses.push_back(v.num);
    // Trajectory arrays: absent in chip documents written before the
    // per-PE DVS knobs existed.
    if (const JVal *a = o.find("pe_cr_final"))
        for (const JVal &v : a->arr)
            m.peCrFinal.push_back(v.num);
    if (const JVal *a = o.find("pe_cr_mean"))
        for (const JVal &v : a->arr)
            m.peCrMean.push_back(v.num);
    if (const JVal *a = o.find("pe_epochs"))
        for (const JVal &v : a->arr)
            m.peEpochs.push_back(v.num);
    if (const JVal *a = o.find("pe_steps_up"))
        for (const JVal &v : a->arr)
            m.peStepsUp.push_back(v.num);
    if (const JVal *a = o.find("pe_steps_down"))
        for (const JVal &v : a->arr)
            m.peStepsDown.push_back(v.num);
    return m;
}

linecard::CardMetrics
parseCardMetrics(const JVal &o)
{
    linecard::CardMetrics m;
    m.makespanCycles = numField(o, "makespan_cycles");
    m.throughputPps = numField(o, "throughput_pps");
    m.loadImbalance = numField(o, "load_imbalance");
    m.packetsProcessed = numField(o, "packets_processed");
    m.ingressDrops = numField(o, "ingress_drops");
    m.dramAccesses = numField(o, "dram_accesses");
    m.dramRowHits = numField(o, "dram_row_hits");
    m.dramRowMisses = numField(o, "dram_row_misses");
    m.dramRowConflicts = numField(o, "dram_row_conflicts");
    m.dramRowHitFraction = numField(o, "dram_row_hit_fraction");
    m.dramStallCycles = numField(o, "dram_stall_cycles");
    for (const JVal &v : field(o, "chip_packets").arr)
        m.chipPackets.push_back(v.num);
    for (const JVal &v : field(o, "chip_makespan_cycles").arr)
        m.chipMakespanCycles.push_back(v.num);
    return m;
}

CellOutcome
parseCell(const JVal &o)
{
    CellOutcome out;
    readAxisFields(o, out.cell);
    if (const JVal *chip = o.find("npu")) {
        out.hasNpu = true;
        out.npuGolden = parseChipMetrics(field(*chip, "golden"));
        out.npuFaulty = parseChipMetrics(field(*chip, "faulty"));
    }
    if (const JVal *card = o.find("card")) {
        out.hasCard = true;
        out.cardGolden = parseCardMetrics(field(*card, "golden"));
        out.cardFaulty = parseCardMetrics(field(*card, "faulty"));
    }
    if (const JVal *wall = o.find("wall_ms"))
        out.wallMs = wall->num;

    const JVal &res = field(o, "result");
    out.result.app = out.cell.app;
    out.result.golden = parseRunMetrics(field(res, "golden"));
    out.result.faulty = parseRunMetrics(field(res, "faulty_last"));
    const JVal &agg = field(res, "aggregate");
    out.result.anyErrorProb = numField(agg, "any_error_prob");
    out.result.fatalProb = numField(agg, "fatal_prob");
    out.result.fatalFraction = numField(agg, "fatal_fraction");
    out.result.fallibility = numField(agg, "fallibility");
    out.result.cyclesPerPacket = numField(agg, "cycles_per_packet");
    out.result.energyPerPacketPj =
        numField(agg, "energy_per_packet_pj");
    out.result.l1dEnergyPerPacketPj =
        numField(agg, "l1d_energy_per_packet_pj");
    out.result.edf = numField(agg, "edf");
    for (const auto &kv : field(agg, "error_prob_by_type").obj)
        out.result.errorProbByType[kv.first] = kv.second.num;
    return out;
}

} // namespace

std::string
experimentResultJson(const core::ExperimentResult &res)
{
    JsonWriter w;
    w.beginObject();
    w.key("golden");
    writeRunMetrics(w, res.golden);
    w.key("faulty_last");
    writeRunMetrics(w, res.faulty);
    w.key("aggregate").beginObject();
    w.key("any_error_prob").value(res.anyErrorProb);
    w.key("fatal_prob").value(res.fatalProb);
    w.key("fatal_fraction").value(res.fatalFraction);
    w.key("fallibility").value(res.fallibility);
    w.key("cycles_per_packet").value(res.cyclesPerPacket);
    w.key("energy_per_packet_pj").value(res.energyPerPacketPj);
    w.key("l1d_energy_per_packet_pj").value(res.l1dEnergyPerPacketPj);
    w.key("edf").value(res.edf);
    w.key("error_prob_by_type").beginObject();
    for (const auto &kv : res.errorProbByType)
        w.key(kv.first).value(kv.second);
    w.endObject();
    w.endObject();
    w.endObject();
    return w.str();
}

std::string
chipMetricsJson(const npu::ChipMetrics &metrics)
{
    JsonWriter w;
    writeChipMetrics(w, metrics);
    return w.str();
}

std::string
cardMetricsJson(const linecard::CardMetrics &metrics)
{
    JsonWriter w;
    writeCardMetrics(w, metrics);
    return w.str();
}

std::string
hexU64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
renderJson(const SweepOutcome &outcome, bool provenance)
{
    std::string out = "{\n";
    out += "  \"format\": \"clumsy-sweep-v1\",\n";
    out += "  \"spec\": \"" +
           jsonEscape(outcome.spec.toGridString()) + "\",\n";
    out += "  \"cells\": " + std::to_string(outcome.cells.size()) +
           ",\n";
    if (provenance) {
        out += "  \"provenance\": {\"git\": \"" +
               jsonEscape(gitDescribe()) +
               "\", \"jobs\": " + std::to_string(outcome.jobs) +
               ", \"resumed\": " +
               std::to_string(outcome.resumedCount) +
               ", \"wall_ms\": " + jsonNumber(outcome.wallMs) + "},\n";
    }
    out += "  \"results\": [\n";
    for (std::size_t i = 0; i < outcome.cells.size(); ++i) {
        out += "    " + cellJson(outcome.cells[i], provenance);
        out += i + 1 < outcome.cells.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

std::string
renderCsv(const SweepOutcome &outcome, bool provenance)
{
    std::string out =
        axisCsvHeader() +
        "fallibility,any_error_prob,fatal_prob,fatal_fraction,"
        "cycles_per_packet,energy_per_packet_pj,l1d_energy_per_packet_pj,"
        "edf,golden_cycles_per_packet,golden_energy_per_packet_pj,"
        "golden_dcache_miss_rate";
    out += provenance ? ",wall_ms\n" : "\n";
    for (const CellOutcome &c : outcome.cells) {
        const core::ExperimentResult &r = c.result;
        out += axisCsvFields(c.cell) + formatDouble(r.fallibility);
        out += "," + formatDouble(r.anyErrorProb);
        out += "," + formatDouble(r.fatalProb);
        out += "," + formatDouble(r.fatalFraction);
        out += "," + formatDouble(r.cyclesPerPacket);
        out += "," + formatDouble(r.energyPerPacketPj);
        out += "," + formatDouble(r.l1dEnergyPerPacketPj);
        out += "," + formatDouble(r.edf);
        out += "," + formatDouble(r.golden.cyclesPerPacket);
        out += "," + formatDouble(r.golden.energyPerPacketPj);
        out += "," + formatDouble(r.golden.dcacheMissRate);
        if (provenance)
            out += "," + formatDouble(c.wallMs);
        out += "\n";
    }
    return out;
}

std::map<std::string, CellOutcome>
loadCompletedCells(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    const JVal doc = parseJson(text);
    if (doc.kind != JVal::Kind::Obj)
        fatal("%s: not a JSON object", path.c_str());
    const JVal *format = doc.find("format");
    if (!format || format->str != "clumsy-sweep-v1")
        fatal("%s: not a clumsy-sweep-v1 document", path.c_str());

    std::map<std::string, CellOutcome> cells;
    for (const JVal &entry : field(doc, "results").arr) {
        CellOutcome out = parseCell(entry);
        const std::string storedKey = strField(entry, "key");
        const std::string derivedKey = out.cell.key();
        if (storedKey != derivedKey)
            fatal("%s: stored key '%s' does not match its fields",
                  path.c_str(), storedKey.c_str());
        cells.emplace(derivedKey, std::move(out));
    }
    return cells;
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        fatal("cannot open %s for writing", path.c_str());
    out << content;
    out.close();
    if (!out)
        fatal("error writing %s", path.c_str());
}

std::string
gitDescribe()
{
    FILE *pipe =
        popen("git describe --always --dirty 2>/dev/null", "r");
    if (!pipe)
        return "unknown";
    char buf[128] = {0};
    std::string out;
    while (std::fgets(buf, sizeof(buf), pipe))
        out += buf;
    pclose(pipe);
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
        out.pop_back();
    return out.empty() ? "unknown" : out;
}

} // namespace clumsy::sweep
