#include "support/json.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace polyfuse {
namespace json {

namespace {

constexpr int kMaxDepth = 64;

struct Parser
{
    const std::string &s;
    size_t pos = 0;
    std::string error;

    explicit Parser(const std::string &text) : s(text) {}

    bool
    fail(const std::string &msg)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), " at offset %zu", pos);
        error = msg + buf;
        return false;
    }

    void
    ws()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
                s[pos] == '\r'))
            ++pos;
    }

    bool
    literal(const char *word)
    {
        size_t n = 0;
        while (word[n])
            ++n;
        if (s.compare(pos, n, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos += n;
        return true;
    }

    /** Append codepoint @p cp as UTF-8. */
    static void
    appendUtf8(std::string *out, uint32_t cp)
    {
        if (cp < 0x80) {
            out->push_back(char(cp));
        } else if (cp < 0x800) {
            out->push_back(char(0xc0 | (cp >> 6)));
            out->push_back(char(0x80 | (cp & 0x3f)));
        } else if (cp < 0x10000) {
            out->push_back(char(0xe0 | (cp >> 12)));
            out->push_back(char(0x80 | ((cp >> 6) & 0x3f)));
            out->push_back(char(0x80 | (cp & 0x3f)));
        } else {
            out->push_back(char(0xf0 | (cp >> 18)));
            out->push_back(char(0x80 | ((cp >> 12) & 0x3f)));
            out->push_back(char(0x80 | ((cp >> 6) & 0x3f)));
            out->push_back(char(0x80 | (cp & 0x3f)));
        }
    }

    /** The four hex digits of a \u escape, as a UTF-16 code unit. */
    bool
    hex4(uint32_t *unit)
    {
        if (pos + 4 > s.size())
            return fail("truncated \\u escape");
        *unit = 0;
        for (int i = 0; i < 4; ++i) {
            char h = s[pos++];
            *unit <<= 4;
            if (h >= '0' && h <= '9')
                *unit |= uint32_t(h - '0');
            else if (h >= 'a' && h <= 'f')
                *unit |= uint32_t(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                *unit |= uint32_t(h - 'A' + 10);
            else
                return fail("bad \\u escape digit");
        }
        return true;
    }

    bool
    parseString(std::string *out)
    {
        if (pos >= s.size() || s[pos] != '"')
            return fail("expected string");
        ++pos;
        out->clear();
        while (pos < s.size()) {
            unsigned char c = s[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (c < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out->push_back(char(c));
                ++pos;
                continue;
            }
            ++pos; // backslash
            if (pos >= s.size())
                return fail("truncated escape");
            char e = s[pos++];
            switch (e) {
              case '"': out->push_back('"'); break;
              case '\\': out->push_back('\\'); break;
              case '/': out->push_back('/'); break;
              case 'b': out->push_back('\b'); break;
              case 'f': out->push_back('\f'); break;
              case 'n': out->push_back('\n'); break;
              case 'r': out->push_back('\r'); break;
              case 't': out->push_back('\t'); break;
              case 'u': {
                uint32_t cp;
                if (!hex4(&cp))
                    return false;
                // A character past the BMP is escaped as a UTF-16
                // pair: a high surrogate, then a \u low surrogate.
                // Either half alone encodes no character.
                if (cp >= 0xdc00 && cp <= 0xdfff)
                    return fail("lone low surrogate");
                if (cp >= 0xd800 && cp <= 0xdbff) {
                    uint32_t low;
                    if (s.compare(pos, 2, "\\u") != 0)
                        return fail("lone high surrogate");
                    pos += 2;
                    if (!hex4(&low))
                        return false;
                    if (low < 0xdc00 || low > 0xdfff)
                        return fail("high surrogate without a low one");
                    cp = 0x10000 + ((cp - 0xd800) << 10) +
                         (low - 0xdc00);
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    /** Consume a run of decimal digits; false when there is none. */
    bool
    digits()
    {
        size_t from = pos;
        while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9')
            ++pos;
        return pos > from;
    }

    /** One RFC 8259 number,
     *  -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? -- and a run
     *  that goes on past it (`01`, `1.`, `1.e5`, `1e5.0`) is malformed,
     *  not split into two tokens. */
    bool
    parseNumber(double *out)
    {
        const size_t start = pos;
        auto malformed = [&] {
            pos = start;
            return fail("malformed number");
        };
        if (pos < s.size() && s[pos] == '-')
            ++pos;
        if (pos < s.size() && s[pos] == '0')
            ++pos;
        else if (!digits())
            return pos == start ? fail("expected number") : malformed();
        if (pos < s.size() && s[pos] == '.') {
            ++pos;
            if (!digits())
                return malformed();
        }
        if (pos < s.size() && (s[pos] == 'e' || s[pos] == 'E')) {
            ++pos;
            if (pos < s.size() && (s[pos] == '+' || s[pos] == '-'))
                ++pos;
            if (!digits())
                return malformed();
        }
        if (pos < s.size() &&
            std::string_view("0123456789.eE+-").find(s[pos]) !=
                std::string_view::npos)
            return malformed();
        std::string tok = s.substr(start, pos - start);
        double v = std::strtod(tok.c_str(), nullptr);
        // Refuse what a double cannot hold: a literal past its range,
        // and an integer literal past 2^53, where a double skips
        // integers (an id would silently come back rounded).
        bool exact = std::isfinite(v);
        if (exact && tok.find_first_of(".eE") == std::string::npos) {
            uint64_t mag = 0;
            auto r = std::from_chars(tok.c_str() + (tok[0] == '-'),
                                     tok.c_str() + tok.size(), mag);
            exact = r.ec == std::errc() &&
                    mag <= uint64_t(kMaxExactInt);
        }
        if (!exact) {
            pos = start;
            return fail("number out of range");
        }
        *out = v;
        return true;
    }

    bool
    parseValue(Value *out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        ws();
        if (pos >= s.size())
            return fail("unexpected end of input");
        char c = s[pos];
        if (c == '"') {
            out->kind = Value::Kind::String;
            return parseString(&out->string);
        }
        if (c == '{') {
            ++pos;
            out->kind = Value::Kind::Object;
            ws();
            if (pos < s.size() && s[pos] == '}') {
                ++pos;
                return true;
            }
            while (true) {
                ws();
                std::string key;
                if (!parseString(&key))
                    return false;
                for (const auto &kv : out->object)
                    if (kv.first == key)
                        return fail("duplicate key \"" + key + "\"");
                ws();
                if (pos >= s.size() || s[pos] != ':')
                    return fail("expected ':'");
                ++pos;
                Value v;
                if (!parseValue(&v, depth + 1))
                    return false;
                out->object.emplace_back(std::move(key),
                                         std::move(v));
                ws();
                if (pos < s.size() && s[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (pos < s.size() && s[pos] == '}') {
                    ++pos;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            ++pos;
            out->kind = Value::Kind::Array;
            ws();
            if (pos < s.size() && s[pos] == ']') {
                ++pos;
                return true;
            }
            while (true) {
                Value v;
                if (!parseValue(&v, depth + 1))
                    return false;
                out->array.push_back(std::move(v));
                ws();
                if (pos < s.size() && s[pos] == ',') {
                    ++pos;
                    continue;
                }
                if (pos < s.size() && s[pos] == ']') {
                    ++pos;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        if (c == 't') {
            out->kind = Value::Kind::Bool;
            out->boolean = true;
            return literal("true");
        }
        if (c == 'f') {
            out->kind = Value::Kind::Bool;
            out->boolean = false;
            return literal("false");
        }
        if (c == 'n') {
            out->kind = Value::Kind::Null;
            return literal("null");
        }
        out->kind = Value::Kind::Number;
        return parseNumber(&out->number);
    }
};

void
writeNumber(std::string *out, double d)
{
    if (!std::isfinite(d)) {
        *out += "null";
        return;
    }
    if (d == 0 && std::signbit(d)) {
        *out += "-0"; // int64_t(d) below would drop the sign
        return;
    }
    char buf[32];
    std::to_chars_result r;
    // Integers up to 2^53 as plain digits (not "1e+08"), integral
    // values past it in exponent form, which the parser accepts.
    if (d != std::trunc(d))
        r = std::to_chars(buf, buf + sizeof(buf), d);
    else if (std::fabs(d) <= kMaxExactInt)
        r = std::to_chars(buf, buf + sizeof(buf), int64_t(d));
    else
        r = std::to_chars(buf, buf + sizeof(buf), d,
                          std::chars_format::scientific);
    out->append(buf, r.ptr);
}

void
writeValue(std::string *out, const Value &v)
{
    switch (v.kind) {
      case Value::Kind::Null: *out += "null"; break;
      case Value::Kind::Bool:
        *out += v.boolean ? "true" : "false";
        break;
      case Value::Kind::Number: writeNumber(out, v.number); break;
      case Value::Kind::String:
        *out += '"' + escape(v.string) + '"';
        break;
      case Value::Kind::Array:
      case Value::Kind::Object: {
        bool obj = v.isObject();
        *out += obj ? '{' : '[';
        for (size_t i = 0; i < (obj ? v.object.size() : v.array.size());
             ++i) {
            if (i)
                *out += ", ";
            if (obj)
                *out += '"' + escape(v.object[i].first) + "\": ";
            writeValue(out, obj ? v.object[i].second : v.array[i]);
        }
        *out += obj ? '}' : ']';
        break;
      }
    }
}

} // namespace

const Value *
Value::get(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &kv : object)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

Value &
Value::set(const std::string &key, Value v)
{
    if (kind == Kind::Null)
        kind = Kind::Object;
    auto it = std::find_if(object.begin(), object.end(),
                           [&](const auto &kv) { return kv.first == key; });
    if (it != object.end())
        it->second = std::move(v);
    else
        object.emplace_back(key, std::move(v));
    return *this;
}

Value &
Value::push(Value v)
{
    if (kind == Kind::Null)
        kind = Kind::Array;
    array.push_back(std::move(v));
    return *this;
}

bool
Value::operator==(const Value &other) const
{
    if (kind != other.kind)
        return false;
    switch (kind) {
      case Kind::Null: return true;
      case Kind::Bool: return boolean == other.boolean;
      case Kind::Number: return number == other.number;
      case Kind::String: return string == other.string;
      case Kind::Array: return array == other.array;
      case Kind::Object: return object == other.object;
    }
    return false;
}

bool
parseAt(const std::string &text, size_t *pos, Value *out,
        std::string *error)
{
    Parser p(text);
    p.pos = *pos;
    Value v;
    if (!p.parseValue(&v, 0)) {
        if (error)
            *error = p.error;
        return false;
    }
    *pos = p.pos;
    *out = std::move(v);
    return true;
}

bool
parse(const std::string &text, Value *out, std::string *error)
{
    Parser p(text);
    Value v;
    bool ok = p.parseValue(&v, 0);
    p.ws();
    if (ok && p.pos != text.size())
        ok = p.fail("trailing garbage");
    if (!ok) {
        if (error)
            *error = p.error;
        return false;
    }
    *out = std::move(v);
    return true;
}

std::string
dump(const Value &v)
{
    std::string out;
    writeValue(&out, v);
    return out;
}

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(char(c));
            }
        }
    }
    return out;
}

} // namespace json
} // namespace polyfuse
