/**
 * @file
 * Dependency-free JSON document model, writer, and minimal parser.
 *
 * The statistics registry (common/stats.hh) and the result/reporting
 * layer (core/report.hh) serialize through this one writer so that
 * every machine-readable artifact the simulator emits — stat dumps,
 * RunResult envelopes, figure data points — shares a format.
 *
 * Determinism: objects preserve insertion order and numbers are
 * formatted with std::to_chars (shortest round-trip, locale
 * independent), so serializing bit-identical values always produces
 * byte-identical text. The parallel-vs-serial sweep determinism test
 * relies on this.
 */

#ifndef CONSIM_COMMON_JSON_HH
#define CONSIM_COMMON_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace consim
{

namespace json
{

/** One JSON value: null, bool, number, string, array, or object. */
class Value
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Uint,   ///< integral, stored exactly as uint64
        Int,    ///< integral, stored exactly as int64 (negatives)
        Double,
        String,
        Array,
        Object,
    };

    Value() = default;
    Value(std::nullptr_t) {}
    Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    Value(double d) : kind_(Kind::Double), double_(d) {}
    Value(std::uint64_t u) : kind_(Kind::Uint), uint_(u) {}
    Value(std::int64_t i) : kind_(Kind::Int), int_(i) {}
    Value(int i) : kind_(Kind::Int), int_(i) {}
    Value(unsigned i) : kind_(Kind::Uint), uint_(i) {}
    Value(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
    Value(const char *s) : kind_(Kind::String), str_(s) {}

    /** @return an empty array value. */
    static Value array() { return Value(Kind::Array); }

    /** @return an empty object value. */
    static Value object() { return Value(Kind::Object); }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isNumber() const
    {
        return kind_ == Kind::Uint || kind_ == Kind::Int ||
               kind_ == Kind::Double;
    }

    bool boolean() const { return bool_; }
    const std::string &str() const { return str_; }

    /** @return the number coerced to double (0 for non-numbers). */
    double
    number() const
    {
        switch (kind_) {
          case Kind::Uint:
            return static_cast<double>(uint_);
          case Kind::Int:
            return static_cast<double>(int_);
          case Kind::Double:
            return double_;
          default:
            return 0.0;
        }
    }

    /** @return the number coerced to uint64 (0 for non-numbers). */
    std::uint64_t
    asUint() const
    {
        switch (kind_) {
          case Kind::Uint:
            return uint_;
          case Kind::Int:
            return static_cast<std::uint64_t>(int_);
          case Kind::Double:
            return static_cast<std::uint64_t>(double_);
          default:
            return 0;
        }
    }

    // --- array interface ---

    /** Append to an array (converts a Null value to an array). */
    Value &push(Value v);

    std::size_t size() const;
    const Value &at(std::size_t i) const { return arr_.at(i); }
    Value &at(std::size_t i) { return arr_.at(i); }
    const std::vector<Value> &items() const { return arr_; }

    // --- object interface ---

    /**
     * Set a member (converts a Null value to an object). Keys keep
     * insertion order; setting an existing key overwrites in place.
     * @return reference to the stored value.
     */
    Value &set(std::string_view key, Value v);

    /** @return member or nullptr when absent / not an object. */
    const Value *find(std::string_view key) const;
    Value *find(std::string_view key);
    const std::vector<std::pair<std::string, Value>> &members() const
    {
        return obj_;
    }

    /** Serialize; @p indent > 0 pretty-prints with that many spaces. */
    void write(std::ostream &os, int indent = 0) const;

    /** @return the serialized text. */
    std::string dump(int indent = 0) const;

  private:
    explicit Value(Kind k) : kind_(k) {}

    void writeImpl(std::ostream &os, int indent, int depth) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    std::uint64_t uint_ = 0;
    std::int64_t int_ = 0;
    double double_ = 0.0;
    std::string str_;
    std::vector<Value> arr_;
    std::vector<std::pair<std::string, Value>> obj_;
};

/** Write @p s as a quoted, escaped JSON string literal. */
void writeEscaped(std::ostream &os, std::string_view s);

/**
 * Parse one JSON document (used by tests to validate emitted output;
 * integral number literals parse back to Uint/Int, everything else
 * to Double).
 * @param err optional; receives a message on failure.
 * @return true and fill @p out on success.
 */
bool parse(std::string_view text, Value &out, std::string *err = nullptr);

} // namespace json

} // namespace consim

#endif // CONSIM_COMMON_JSON_HH
