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
#include <utility>
#include <vector>

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

// Typed members of a parsed object; each fatal()s when the member is
// missing or has another type.
const JVal &field(const JVal &obj, const char *key);
double numField(const JVal &obj, const char *key);
std::uint64_t u64Field(const JVal &obj, const char *key);
std::string strField(const JVal &obj, const char *key);
bool boolField(const JVal &obj, const char *key);

} // namespace clumsy::sweep

#endif // CLUMSY_SWEEP_JSON_HH
