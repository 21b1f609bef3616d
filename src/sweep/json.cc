#include "sweep/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace clumsy::sweep
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    CLUMSY_ASSERT(std::isfinite(v), "JSON cannot carry %g", v);
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    CLUMSY_ASSERT(res.ec == std::errc(), "number format overflow");
    return std::string(buf, res.ptr);
}

void
JsonWriter::separate()
{
    if (afterKey_) {
        afterKey_ = false;
        return;
    }
    if (needComma_)
        out_ += indentStep_ ? "," : ", ";
    if (depth_ > 0)
        newlineIndent();
}

void
JsonWriter::newlineIndent()
{
    if (indentStep_ == 0)
        return;
    out_ += "\n";
    out_.append(static_cast<std::size_t>(depth_) * indentStep_, ' ');
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    out_ += "{";
    ++depth_;
    needComma_ = false;
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    CLUMSY_ASSERT(depth_ > 0, "endObject() at depth 0");
    --depth_;
    if (needComma_)
        newlineIndent();
    out_ += "}";
    needComma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    out_ += "[";
    ++depth_;
    needComma_ = false;
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    CLUMSY_ASSERT(depth_ > 0, "endArray() at depth 0");
    --depth_;
    if (needComma_)
        newlineIndent();
    out_ += "]";
    needComma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &name)
{
    separate();
    out_ += '"';
    out_ += jsonEscape(name);
    out_ += "\": ";
    afterKey_ = true;
    needComma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    separate();
    out_ += '"';
    out_ += jsonEscape(v);
    out_ += '"';
    needComma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    separate();
    out_ += jsonNumber(v);
    needComma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    separate();
    out_ += std::to_string(v);
    needComma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    separate();
    out_ += v ? "true" : "false";
    needComma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::raw(const std::string &json)
{
    separate();
    out_ += json;
    needComma_ = true;
    return *this;
}

// --- reader ----------------------------------------------------------

namespace
{

struct JsonParser
{
    const std::string &text;
    std::size_t pos = 0;

    [[noreturn]] void die(const char *what) const
    {
        fatal("sweep JSON parse error at byte %zu: %s", pos, what);
    }

    void skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\n' ||
                text[pos] == '\t' || text[pos] == '\r'))
            ++pos;
    }

    char peek()
    {
        skipWs();
        if (pos >= text.size())
            die("unexpected end of input");
        return text[pos];
    }

    void expect(char c)
    {
        if (peek() != c)
            die("unexpected character");
        ++pos;
    }

    bool consume(char c)
    {
        if (peek() != c)
            return false;
        ++pos;
        return true;
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        while (pos < text.size() && text[pos] != '"') {
            char c = text[pos++];
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                die("dangling escape");
            const char esc = text[pos++];
            switch (esc) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'n':
                out += '\n';
                break;
              case 't':
                out += '\t';
                break;
              case 'r':
                out += '\r';
                break;
              case 'u': {
                if (pos + 4 > text.size())
                    die("short \\u escape");
                const std::string hex = text.substr(pos, 4);
                pos += 4;
                out += static_cast<char>(
                    std::strtoul(hex.c_str(), nullptr, 16));
                break;
              }
              default:
                die("unsupported escape");
            }
        }
        if (pos >= text.size())
            die("unterminated string");
        ++pos; // closing quote
        return out;
    }

    JVal parseValue()
    {
        JVal v;
        const char c = peek();
        if (c == '{') {
            ++pos;
            v.kind = JVal::Kind::Obj;
            if (consume('}'))
                return v;
            for (;;) {
                std::string key = parseString();
                expect(':');
                v.obj.emplace_back(std::move(key), parseValue());
                if (consume('}'))
                    return v;
                expect(',');
            }
        }
        if (c == '[') {
            ++pos;
            v.kind = JVal::Kind::Arr;
            if (consume(']'))
                return v;
            for (;;) {
                v.arr.push_back(parseValue());
                if (consume(']'))
                    return v;
                expect(',');
            }
        }
        if (c == '"') {
            v.kind = JVal::Kind::Str;
            v.str = parseString();
            return v;
        }
        if (c == 't' || c == 'f') {
            const std::string word = c == 't' ? "true" : "false";
            if (text.compare(pos, word.size(), word) != 0)
                die("bad literal");
            pos += word.size();
            v.kind = JVal::Kind::Bool;
            v.b = c == 't';
            return v;
        }
        if (c == 'n') {
            if (text.compare(pos, 4, "null") != 0)
                die("bad literal");
            pos += 4;
            return v;
        }
        // number
        char *end = nullptr;
        v.num = std::strtod(text.c_str() + pos, &end);
        if (end == text.c_str() + pos)
            die("expected a value");
        pos = static_cast<std::size_t>(end - text.c_str());
        v.kind = JVal::Kind::Num;
        return v;
    }
};

} // namespace

JVal
parseJson(const std::string &text)
{
    JsonParser parser{text};
    return parser.parseValue();
}

const JVal &
field(const JVal &obj, const char *key)
{
    const JVal *v = obj.find(key);
    if (!v)
        fatal("sweep JSON: missing field '%s'", key);
    return *v;
}

const JVal &
ofKind(const JVal &v, JVal::Kind kind, const char *key)
{
    static const char *const kKinds[] = {
        "null", "a bool", "a number", "a string", "an array", "an object"};
    if (v.kind != kind)
        fatal("sweep JSON: field '%s' is not %s", key,
              kKinds[static_cast<int>(kind)]);
    return v;
}

std::uint64_t
asU64(const JVal &v, const char *key, unsigned bits)
{
    // Negative, NaN and too-large values would convert as UB.
    const double n = ofKind(v, JVal::Kind::Num, key).num;
    if (!(n >= 0.0 && n < std::ldexp(1.0, static_cast<int>(bits))))
        fatal("sweep JSON: field '%s' is out of range", key);
    return static_cast<std::uint64_t>(n);
}

double
numField(const JVal &obj, const char *key)
{
    return ofKind(field(obj, key), JVal::Kind::Num, key).num;
}

std::uint64_t
u64Field(const JVal &obj, const char *key, unsigned bits)
{
    return asU64(field(obj, key), key, bits);
}

std::string
strField(const JVal &obj, const char *key)
{
    return ofKind(field(obj, key), JVal::Kind::Str, key).str;
}

bool
boolField(const JVal &obj, const char *key)
{
    return ofKind(field(obj, key), JVal::Kind::Bool, key).b;
}

} // namespace clumsy::sweep
