/**
 * @file
 * One description, two directions: archives over json::Value.
 *
 * A stateful type describes its state once, as a template body
 * `io(Ar &ar, Self &x)`. Run with a Saver (Self deduced const) the
 * body writes a JSON tree; run with a Loader it reads the same tree
 * back into x. Both directions execute the same calls in the same
 * order, so a field cannot be saved under one name and loaded under
 * another, or saved and then forgotten on load.
 *
 * The vocabulary is identical on both archives; "the node" is the
 * JSON object or array the description is currently filling:
 *
 *   ar(key, x)             named field: member `key` of the node
 *   ar.rec(x...)           positional record: append each x
 *   ar.seq(key, c, fn)     sequence: member `key` holds one element
 *                          per item of container c, each a node that
 *                          fn(item) describes (ar.seq(c, fn) makes
 *                          the node itself that array)
 *   ar.opt(key, present)   optional section: whether member `key` is
 *                          written (Saver: @p present) or was (Loader)
 *   ar.blocks(key, m, fn)  sorted block-keyed map: member `key` holds
 *                          one record [block, ...] per entry of the
 *                          BlockMap m, in ascending block order;
 *                          fn(value) appends the rest of the record
 *
 * A value x is a scalar, whose JSON kind follows its C++ type (bool
 * -> Bool, signed integer or enum -> Int, unsigned integer -> Uint,
 * floating point -> Double, std::string -> String); a json::Value,
 * copied verbatim; a range of values (vector, std::array, C array)
 * -> Array; or a nullary callable describing a nested node, which
 * is an array if the callable appends records and an object
 * otherwise.
 *
 * On load, a range or sequence fills a container the machine has
 * already sized and refuses a document of another length; an empty
 * resizable container is grown to the document's length instead
 * (the dynamic lists: queues, and records a body gathers on save).
 * Missing members and short records are refused as well. Where the
 * two directions really differ (a pointer saved as an index, a
 * derived count recomputed and checked), a body branches on the
 * compile-time constant Ar::loading.
 */

#ifndef CONSIM_COMMON_ARCHIVE_HH
#define CONSIM_COMMON_ARCHIVE_HH

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"

namespace consim
{

namespace json
{

namespace detail
{

template <class T>
concept Range = !std::is_same_v<T, std::string> &&
                requires(T &c) { std::begin(c); std::end(c); };

template <class T>
Value
toValue(const T &x)
{
    if constexpr (std::is_same_v<T, bool> ||
                  std::is_same_v<T, std::string>)
        return Value(x);
    else if constexpr (std::is_floating_point_v<T>)
        return Value(static_cast<double>(x));
    else if constexpr (std::is_enum_v<T> || std::is_signed_v<T>)
        return Value(static_cast<std::int64_t>(x));
    else
        return Value(static_cast<std::uint64_t>(x));
}

template <class T>
void
fromValue(const Value &v, T &x)
{
    if constexpr (std::is_same_v<T, bool>)
        x = v.boolean();
    else if constexpr (std::is_same_v<T, std::string>)
        x = v.str();
    else if constexpr (std::is_floating_point_v<T>)
        x = static_cast<T>(v.number());
    else if constexpr (std::is_enum_v<T> || std::is_signed_v<T>)
        x = static_cast<T>(static_cast<std::int64_t>(v.asUint()));
    else
        x = static_cast<T>(v.asUint());
}

} // namespace detail

/**
 * Runs a description in one direction: json::Saver (Loading false)
 * writes the JSON tree, json::Loader (Loading true) reads it back.
 */
template <bool Loading>
class Archive
{
  public:
    static constexpr bool loading = Loading;
    using Node = std::conditional_t<Loading, const Value, Value>;

    /** Describe into (Saver) or out of (Loader) @p root, normally
     *  an object; @p what prefixes every refusal message. */
    explicit Archive(Node &root, const char *what = "checkpoint")
        : node_(&root), what_(what)
    {
    }

    template <class T>
    void
    operator()(std::string_view key, T &&x)
    {
        path_.push_back(key);
        value(member(key), x);
        path_.pop_back();
    }

    template <class... T>
    void
    rec(T &&...xs)
    {
        (value(next(), xs), ...);
    }

    template <class C, class F>
    void
    seq(std::string_view key, C &c, F &&fn)
    {
        (*this)(key, [&] { seq(c, fn); });
    }

    template <class C, class F>
    void
    seq(C &c, F &&fn)
    {
        if constexpr (Loading)
            fit(c, node_->size());
        else if (node_->isNull())
            *node_ = Value::array();
        for (auto &e : c)
            rec([&] { fn(e); });
    }

    bool
    opt(std::string_view key, bool present) const
    {
        return Loading ? node_->find(key) != nullptr : present;
    }

    template <class M, class F>
    void
    blocks(std::string_view key, M &m, F &&fn)
    {
        auto keys = m.keys();
        std::sort(keys.begin(), keys.end());
        if constexpr (Loading)
            keys.clear(); // grown to the document's records
        seq(key, keys, [&](auto &k) {
            rec(k);
            if constexpr (Loading)
                fn(m[k]);
            else
                fn(m.at(k));
        });
    }

    /** @return the element count of the node being described. */
    std::size_t size() const { return node_->size(); }

  private:
    Node &
    member(std::string_view key)
    {
        if constexpr (Loading) {
            const Value *v = node_->find(key);
            CONSIM_ASSERT(v != nullptr, what_, ": missing field \"",
                          where(), "\"");
            return *v;
        } else {
            return node_->set(key, Value());
        }
    }

    Node &
    next()
    {
        if constexpr (Loading) {
            CONSIM_ASSERT(pos_ < node_->size(), what_,
                          ": short record in ", where());
            return node_->at(pos_++);
        } else {
            return node_->push(Value());
        }
    }

    template <class T>
    void
    value(Node &v, T &&x)
    {
        using U = std::remove_cvref_t<T>;
        if constexpr (std::is_invocable_v<U &>) {
            Node *up = std::exchange(node_, &v);
            const std::size_t pos = std::exchange(pos_, 0);
            x();
            node_ = up;
            pos_ = pos;
            if constexpr (!Loading)
                if (v.isNull())
                    v = Value::object();
        } else if constexpr (detail::Range<U>) {
            if constexpr (Loading)
                fit(x, v.size());
            else
                v = Value::array();
            std::size_t i = 0;
            for (auto &e : x) {
                if constexpr (Loading)
                    value(v.at(i++), e);
                else
                    value(v.push(Value()), e);
            }
        } else if constexpr (std::is_same_v<U, Value>) {
            if constexpr (Loading)
                x = v;
            else
                v = x;
        } else if constexpr (Loading) {
            detail::fromValue(v, x);
        } else {
            v = detail::toValue(x);
        }
    }

    /** Size @p c for @p n document elements (see the file comment). */
    template <class C>
    void
    fit(C &c, std::size_t n)
    {
        const std::size_t have = std::size(c);
        if constexpr (requires { c.resize(n); }) {
            if (have == 0) {
                c.resize(n);
                return;
            }
        }
        CONSIM_ASSERT(have == n, what_, ": \"",
                      std::string(path_.empty() ? "" : path_.back()),
                      "\" count mismatch (snapshot ", n, ", machine ",
                      have, ")");
    }

    /** @return the dotted member path being read, for messages. */
    std::string
    where() const
    {
        std::string s;
        for (const std::string_view k : path_)
            s.append(s.empty() ? "" : ".").append(k);
        return s;
    }

    Node *node_;
    std::size_t pos_ = 0;
    const char *what_;
    std::vector<std::string_view> path_;
};

using Saver = Archive<false>;
using Loader = Archive<true>;

} // namespace json

} // namespace consim

#endif // CONSIM_COMMON_ARCHIVE_HH
