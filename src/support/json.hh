/**
 * @file
 * A small, strict JSON reader for the compile service's request /
 * response payloads. Unlike the write-only emitters scattered through
 * the repo (PassStats::json, the bench tables) this one has to accept
 * *hostile* input -- frames arrive over a socket from arbitrary
 * clients -- so it is a real recursive-descent parser with a depth
 * cap, full escape handling, duplicate-key rejection and precise
 * error offsets, and it never throws: malformed input comes back as
 * `false` plus a diagnostic, which the server turns into a typed
 * `badrequest` response instead of a dead connection.
 *
 * Deliberately not used by perfmodel::TuneDb, whose reader is fused
 * with its fixed schema; this one produces a generic JsonValue tree
 * the protocol layer then validates field by field.
 */

#ifndef POLYFUSE_SUPPORT_JSON_HH
#define POLYFUSE_SUPPORT_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace polyfuse {
namespace json {

/** One parsed JSON value (a tree; objects keep insertion order). */
struct Value
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string string;
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Object member lookup; null when absent or not an object. */
    const Value *get(const std::string &key) const;
};

/**
 * Parse @p text (one complete JSON value, nothing trailing) into
 * @p out. @return false with a diagnostic ("... at offset N") in
 * @p error on malformed input, inputs nested deeper than 64 levels,
 * or duplicate object keys. Never throws.
 */
bool parse(const std::string &text, Value *out,
           std::string *error = nullptr);

/**
 * Escape @p s for embedding inside a JSON string literal: quotes,
 * backslashes, \n \r \t, and every other control character as
 * \uXXXX. Bytes >= 0x20 (UTF-8 included) pass through unchanged.
 * The one escaper every JSON writer in the repository uses.
 */
std::string escape(const std::string &s);

} // namespace json
} // namespace polyfuse

#endif // POLYFUSE_SUPPORT_JSON_HH
