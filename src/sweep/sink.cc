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

/** A tier's {"golden": ..., "faulty": ...} metric pair. */
template <typename S, typename Rows>
void
writePair(JsonWriter &w, const char *tier, const S &golden,
          const S &faulty, const Rows &rows)
{
    w.key(tier).beginObject();
    w.key("golden");
    writeFields(w, golden, rows);
    w.key("faulty");
    writeFields(w, faulty, rows);
    w.endObject();
}

/** @return false when the record has no @p tier pair. */
template <typename S, typename Rows>
bool
readPair(const JVal &o, const char *tier, S &golden, S &faulty,
         const Rows &rows)
{
    const JVal *pair = o.find(tier);
    if (!pair)
        return false;
    readFields(field(*pair, "golden"), golden, rows);
    readFields(field(*pair, "faulty"), faulty, rows);
    return true;
}

std::string
cellJson(const CellOutcome &out, bool provenance)
{
    JsonWriter w;
    w.beginObject();
    w.key("key").value(out.cell.key());
    writeAxisFields(w, out.cell);
    w.key("result").raw(experimentResultJson(out.result));
    if (out.hasNpu)
        writePair(w, "npu", out.npuGolden, out.npuFaulty,
                  npu::kChipMetricsFields);
    if (out.hasCard)
        writePair(w, "card", out.cardGolden, out.cardFaulty,
                  linecard::kCardMetricsFields);
    if (provenance)
        w.key("wall_ms").value(out.wallMs);
    w.endObject();
    return w.str();
}

CellOutcome
parseCell(const JVal &o)
{
    CellOutcome out;
    readAxisFields(o, out.cell);
    out.hasNpu = readPair(o, "npu", out.npuGolden, out.npuFaulty,
                          npu::kChipMetricsFields);
    out.hasCard = readPair(o, "card", out.cardGolden, out.cardFaulty,
                           linecard::kCardMetricsFields);
    if (o.find("wall_ms"))
        out.wallMs = numField(o, "wall_ms");

    const JVal &res = field(o, "result");
    out.result.app = out.cell.app;
    readFields(field(res, "golden"), out.result.golden,
               core::kRunMetricsFields);
    readFields(field(res, "faulty_last"), out.result.faulty,
               core::kRunMetricsFields);
    readFields(field(res, "aggregate"), out.result,
               core::kExperimentAggregateFields);
    return out;
}

} // namespace

std::string
experimentResultJson(const core::ExperimentResult &res)
{
    JsonWriter w;
    w.beginObject();
    w.key("golden");
    writeFields(w, res.golden, core::kRunMetricsFields);
    w.key("faulty_last");
    writeFields(w, res.faulty, core::kRunMetricsFields);
    w.key("aggregate");
    writeFields(w, res, core::kExperimentAggregateFields);
    w.endObject();
    return w.str();
}

std::string
chipMetricsJson(const npu::ChipMetrics &metrics)
{
    JsonWriter w;
    writeFields(w, metrics, npu::kChipMetricsFields);
    return w.str();
}

std::string
cardMetricsJson(const linecard::CardMetrics &metrics)
{
    JsonWriter w;
    writeFields(w, metrics, linecard::kCardMetricsFields);
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
    auto field = [&out](double v) {
        out += ',';
        out += formatDouble(v);
    };
    for (const CellOutcome &c : outcome.cells) {
        const core::ExperimentResult &r = c.result;
        out += axisCsvFields(c.cell) + formatDouble(r.fallibility);
        field(r.anyErrorProb);
        field(r.fatalProb);
        field(r.fatalFraction);
        field(r.cyclesPerPacket);
        field(r.energyPerPacketPj);
        field(r.l1dEnergyPerPacketPj);
        field(r.edf);
        field(r.golden.cyclesPerPacket);
        field(r.golden.energyPerPacketPj);
        field(r.golden.dcacheMissRate);
        if (provenance)
            field(c.wallMs);
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
