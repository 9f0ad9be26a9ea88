/**
 * @file
 * The one JSON layer: every JSON document in src/ -- PassStats and
 * batch reports, `--emit json`, the compile service's frames, the
 * perfmodel::TuneDb store -- is built as a Value, written by dump()
 * and read back by parse() or, for TuneDb's per-record salvage,
 * parseAt().
 *
 * The reader has to accept *hostile* input (frames from arbitrary
 * clients, stores rotting on disk), so it is a strict recursive-
 * descent parser with a depth cap, full escape handling (a `\u`
 * surrogate pair decodes to one 4-byte UTF-8 character), RFC 8259
 * number syntax, duplicate-key rejection and precise error offsets,
 * and it never throws: malformed input comes back as `false` plus a
 * diagnostic.
 *
 * dump() has one fixed spelling (`"key": value`, `, ` separators, no
 * newlines). Numbers are exact: integers up to 2^53 as plain digits,
 * other finite values in their shortest round-trip form
 * (std::to_chars), NaN and infinity as `null`. So parse(dump(v)) ==
 * v for every finite tree.
 */

#ifndef POLYFUSE_SUPPORT_JSON_HH
#define POLYFUSE_SUPPORT_JSON_HH

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace polyfuse {
namespace json {

/** 2^53: every integer up to this magnitude is an exact double. */
constexpr double kMaxExactInt = 9007199254740992.0;

/** One JSON value (a tree; objects keep insertion order). */
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

    Value() = default;
    /** An empty value of kind @p k (`[]` or `{}` for containers). */
    explicit Value(Kind k) : kind(k) {}
    Value(bool b) : kind(Kind::Bool), boolean(b) {}
    template <typename T,
              typename = std::enable_if_t<std::is_arithmetic_v<T> &&
                                          !std::is_same_v<T, bool>>>
    Value(T n) : kind(Kind::Number), number(double(n)) {}
    Value(std::string s) : kind(Kind::String), string(std::move(s)) {}
    Value(const char *s) : kind(Kind::String), string(s) {}
    /** An array holding each of @p items, converted as above. */
    template <typename T>
    Value(const std::vector<T> &items) : kind(Kind::Array)
    {
        for (const T &item : items)
            array.emplace_back(item);
    }

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Object member lookup; null when absent or not an object. */
    const Value *get(const std::string &key) const;

    /** Set member @p key to @p v, replacing it in place or appending
     *  it; a null value becomes an object first. */
    Value &set(const std::string &key, Value v);

    /** Append @p v; a null value becomes an array first. */
    Value &push(Value v);

    /** Same kind and payload; object members compared in order. */
    bool operator==(const Value &other) const;
};

/**
 * Parse @p text (one complete JSON value, nothing trailing) into
 * @p out. @return false with a diagnostic ("... at offset N") in
 * @p error on malformed input, inputs nested deeper than 64 levels,
 * duplicate object keys, or numbers a double cannot hold exactly
 * (past its range, or integer literals past 2^53). Never throws.
 */
bool parse(const std::string &text, Value *out,
           std::string *error = nullptr);

/** Parse the one value at @p *pos in @p text (after whitespace),
 *  leaving what follows unread: @p *pos moves past it on success and
 *  stays put on failure, with @p error set as for parse(). */
bool parseAt(const std::string &text, size_t *pos, Value *out,
             std::string *error = nullptr);

/** Serialize @p v in the one fixed spelling described above. */
std::string dump(const Value &v);

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
