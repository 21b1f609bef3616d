/**
 * @file
 * Minimal deterministic JSON emitter, and the reader --resume uses.
 *
 * The sweep sinks (and clumsy_sim --json) need JSON output that is
 * byte-for-byte reproducible: doubles are printed in their shortest
 * round-trip decimal form via std::to_chars, keys are emitted in the
 * order the caller writes them, and there is no locale dependence.
 * Writing is append-only into a growing string; the writer tracks
 * nesting solely to place commas, so malformed sequences are caught
 * by assertions rather than producing broken output.
 */

#ifndef CLUMSY_SWEEP_JSON_HH
#define CLUMSY_SWEEP_JSON_HH

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/fields.hh"

namespace clumsy::sweep
{

/** Escape a string for inclusion inside JSON quotes. */
std::string jsonEscape(const std::string &s);

/** Shortest round-trip decimal text for a finite double. */
std::string jsonNumber(double v);

/** Append-only JSON builder with automatic comma placement. */
class JsonWriter
{
  public:
    /**
     * @param indentStep  spaces per nesting level; 0 emits compact
     *                    single-line JSON (used for per-cell lines)
     */
    explicit JsonWriter(unsigned indentStep = 0)
        : indentStep_(indentStep)
    {
    }

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Start a "key": inside the current object. */
    JsonWriter &key(const std::string &name);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(bool v);

    /** Splice pre-rendered JSON (e.g. a stored result line) as-is. */
    JsonWriter &raw(const std::string &json);

    /** The document so far. */
    const std::string &str() const { return out_; }

  private:
    std::string out_;
    unsigned indentStep_;
    unsigned depth_ = 0;
    bool needComma_ = false;
    bool afterKey_ = false;

    void separate();
    void newlineIndent();
};

/** A parsed JSON value; only what the sweep's own documents contain. */
struct JVal
{
    enum class Kind { Null, Bool, Num, Str, Arr, Obj };
    Kind kind = Kind::Null;
    bool b = false;
    double num = 0.0;
    std::string str;
    std::vector<JVal> arr;
    std::vector<std::pair<std::string, JVal>> obj;

    const JVal *find(const std::string &key) const
    {
        for (const auto &kv : obj) {
            if (kv.first == key)
                return &kv.second;
        }
        return nullptr;
    }
};

/** Parse the JSON value at the start of @p text; fatal()s on junk. */
JVal parseJson(const std::string &text);

// Typed members of a parsed object; each fatal()s, naming the member,
// when it is missing or has another type.
const JVal &field(const JVal &obj, const char *key);
double numField(const JVal &obj, const char *key);
/** A count: a number in [0, 2^bits), fatal() otherwise. */
std::uint64_t u64Field(const JVal &obj, const char *key,
                       unsigned bits = 64);
std::string strField(const JVal &obj, const char *key);
bool boolField(const JVal &obj, const char *key);

// The same checks on a value of member @p key (the member itself, or
// an element of it).
const JVal &ofKind(const JVal &v, JVal::Kind kind, const char *key);
std::uint64_t asU64(const JVal &v, const char *key, unsigned bits = 64);

// --- field tables (common/fields.hh) ---------------------------------
//
// A row list's JSON form is one object: a member per row, in row
// order, written as its type dictates (u64 and double as numbers,
// bool, string, vector<double> as an array, a string-keyed map as an
// object).

template <typename T>
void
writeValue(JsonWriter &w, const T &v)
{
    if constexpr (std::is_same_v<T, std::vector<double>>) {
        w.beginArray();
        for (double x : v)
            w.value(x);
        w.endArray();
    } else if constexpr (requires { v.begin()->second; }) {
        w.beginObject();
        for (const auto &kv : v)
            w.key(kv.first).value(kv.second);
        w.endObject();
    } else {
        w.value(v);
    }
}

/** Read @p v into @p out as T dictates, checking kind and range. */
template <typename T>
void
readValue(const JVal &v, const char *key, T &out)
{
    using K = JVal::Kind;
    if constexpr (std::is_same_v<T, std::uint64_t>) {
        out = asU64(v, key);
    } else if constexpr (std::is_same_v<T, double>) {
        out = ofKind(v, K::Num, key).num;
    } else if constexpr (std::is_same_v<T, bool>) {
        out = ofKind(v, K::Bool, key).b;
    } else if constexpr (std::is_same_v<T, std::string>) {
        out = ofKind(v, K::Str, key).str;
    } else if constexpr (std::is_same_v<T, std::vector<double>>) {
        out.clear();
        for (const JVal &x : ofKind(v, K::Arr, key).arr)
            readValue(x, key, out.emplace_back());
    } else {
        out.clear();
        for (const auto &kv : ofKind(v, K::Obj, key).obj)
            readValue(kv.second, key, out[kv.first]);
    }
}

/** @p s's @p rows as one JSON object. */
template <typename S, typename Rows>
void
writeFields(JsonWriter &w, const S &s, const Rows &rows)
{
    w.beginObject();
    forEachField(rows, [&](const auto &row) {
        const auto &v = s.*row.member;
        if (row.presence == Presence::ElidedAtZero &&
            v == std::decay_t<decltype(v)>{})
            return;
        w.key(row.name);
        writeValue(w, v);
    });
    w.endObject();
}

/**
 * Read @p rows from object @p o into @p s. A required row must be
 * present; any other keeps @p s's value when absent.
 */
template <typename S, typename Rows>
void
readFields(const JVal &o, S &s, const Rows &rows)
{
    forEachField(rows, [&](const auto &row) {
        if (row.presence == Presence::Required || o.find(row.name))
            readValue(field(o, row.name), row.name, s.*row.member);
    });
}

} // namespace clumsy::sweep

#endif // CLUMSY_SWEEP_JSON_HH
