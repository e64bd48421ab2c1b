#include "common/stats.hh"

#include <algorithm>

#include "common/archive.hh"

namespace consim
{

namespace stats
{

std::uint64_t
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0;
    p = std::clamp(p, 0.0, 1.0);
    const auto target =
        static_cast<std::uint64_t>(p * static_cast<double>(count_));
    std::uint64_t running = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        // Empty buckets can't satisfy the target: without this,
        // p=0 would report bucket 0's edge even when no sample
        // landed there.
        if (buckets_[i] == 0)
            continue;
        running += buckets_[i];
        if (running >= target) {
            // The overflow bucket has no meaningful upper edge;
            // report the largest sample actually seen.
            if (i + 1 == buckets_.size())
                return max_;
            return (i + 1) * width_;
        }
    }
    return max_;
}

// ---------------------------------------------------------------------
// Group
// ---------------------------------------------------------------------

Group::Group(std::string name, Group *parent) : name_(std::move(name))
{
    if (parent)
        parent->addChild(this);
}

Group::~Group()
{
    if (parent_) {
        auto &siblings = parent_->children_;
        siblings.erase(
            std::remove(siblings.begin(), siblings.end(), this),
            siblings.end());
    }
    for (Group *c : children_)
        c->parent_ = nullptr;
}

void
Group::addStat(const std::string &stat_name, StatKind kind, void *p)
{
    CONSIM_ASSERT(p != nullptr, "null stat registered in ", name_);
    for (const Group *c : children_) {
        CONSIM_ASSERT(c->name_ != stat_name, "stat '", stat_name,
                      "' in ", name_, " collides with a child group");
    }
    const bool inserted =
        stats_.emplace(stat_name, StatRef{kind, p}).second;
    CONSIM_ASSERT(inserted, "duplicate stat '", stat_name,
                  "' registered in group ", name_);
}

void
Group::add(const std::string &stat_name, Counter *c)
{
    addStat(stat_name, StatKind::Counter, c);
}

void
Group::add(const std::string &stat_name, Average *a)
{
    addStat(stat_name, StatKind::Average, a);
}

void
Group::add(const std::string &stat_name, Histogram *h)
{
    addStat(stat_name, StatKind::Histogram, h);
}

void
Group::addChild(Group *child)
{
    CONSIM_ASSERT(child != nullptr, "null child group under ", name_);
    CONSIM_ASSERT(child != this, "group ", name_, " can't own itself");
    CONSIM_ASSERT(stats_.find(child->name_) == stats_.end(),
                  "child group '", child->name_, "' in ", name_,
                  " collides with a stat");
    for (const Group *c : children_) {
        CONSIM_ASSERT(c->name_ != child->name_,
                      "duplicate child group '", child->name_,
                      "' under ", name_);
    }
    if (child->parent_) {
        auto &siblings = child->parent_->children_;
        siblings.erase(
            std::remove(siblings.begin(), siblings.end(), child),
            siblings.end());
    }
    child->parent_ = this;
    children_.push_back(child);
}

std::string
Group::fullName() const
{
    if (!parent_)
        return name_;
    return parent_->fullName() + "." + name_;
}

void
Group::resetAll()
{
    for (auto &[k, s] : stats_) {
        switch (s.kind) {
          case StatKind::Counter:
            static_cast<Counter *>(s.ptr)->reset();
            break;
          case StatKind::Average:
            static_cast<Average *>(s.ptr)->reset();
            break;
          case StatKind::Histogram:
            static_cast<Histogram *>(s.ptr)->reset();
            break;
        }
    }
    for (Group *c : children_)
        c->resetAll();
}

void
Group::accept(Visitor &v, const std::string &prefix) const
{
    for (const auto &[k, s] : stats_) {
        const std::string path = prefix + "." + k;
        switch (s.kind) {
          case StatKind::Counter:
            v.counter(path, *static_cast<const Counter *>(s.ptr));
            break;
          case StatKind::Average:
            v.average(path, *static_cast<const Average *>(s.ptr));
            break;
          case StatKind::Histogram:
            v.histogram(path, *static_cast<const Histogram *>(s.ptr));
            break;
        }
    }
    for (const Group *c : children_)
        c->accept(v, prefix + "." + c->name_);
}

void
Group::accept(Visitor &v) const
{
    accept(v, name_);
}

void
Group::dump(std::ostream &os) const
{
    struct Dumper : Visitor
    {
        explicit Dumper(std::ostream &out) : os(out) {}

        void
        counter(const std::string &path, const Counter &c) override
        {
            os << path << " " << c.value() << "\n";
        }

        void
        average(const std::string &path, const Average &a) override
        {
            os << path << ".mean " << a.mean() << "\n";
            os << path << ".count " << a.count() << "\n";
        }

        void
        histogram(const std::string &path, const Histogram &h) override
        {
            os << path << ".mean " << h.mean() << "\n";
            os << path << ".max " << h.max() << "\n";
            os << path << ".count " << h.count() << "\n";
        }

        std::ostream &os;
    } dumper(os);
    accept(dumper);
}

json::Value
Group::toJson() const
{
    json::Value node = json::Value::object();
    for (const auto &[k, s] : stats_) {
        switch (s.kind) {
          case StatKind::Counter:
            node.set(k, static_cast<const Counter *>(s.ptr)->value());
            break;
          case StatKind::Average: {
            const auto *a = static_cast<const Average *>(s.ptr);
            json::Value v = json::Value::object();
            v.set("mean", a->mean());
            v.set("count", a->count());
            node.set(k, std::move(v));
            break;
          }
          case StatKind::Histogram: {
            const auto *h = static_cast<const Histogram *>(s.ptr);
            json::Value v = json::Value::object();
            v.set("mean", h->mean());
            v.set("max", h->max());
            v.set("count", h->count());
            v.set("p50", h->percentile(0.5));
            v.set("p95", h->percentile(0.95));
            node.set(k, std::move(v));
            break;
          }
        }
    }
    for (const Group *c : children_)
        node.set(c->name_, c->toJson());
    return node;
}

template <class Ar, class G>
void
Group::stateIo(Ar &ar, G &g)
{
    ar("stats", [&] {
        for (const auto &[k, s] : g.stats_) {
            switch (s.kind) {
              case StatKind::Counter: {
                auto *c = static_cast<Counter *>(s.ptr);
                std::uint64_t value = c->value();
                ar(k, value);
                if constexpr (Ar::loading)
                    c->restore(value);
                break;
              }
              case StatKind::Average: {
                auto *a = static_cast<Average *>(s.ptr);
                double sum = a->sum();
                std::uint64_t count = a->count();
                ar(k, [&] {
                    ar("sum", sum);
                    ar("count", count);
                });
                if constexpr (Ar::loading)
                    a->restore(sum, count);
                break;
              }
              case StatKind::Histogram: {
                auto *h = static_cast<Histogram *>(s.ptr);
                std::vector<std::uint64_t> buckets;
                for (std::size_t i = 0; i < h->numBuckets(); ++i)
                    buckets.push_back(h->bucket(i));
                std::uint64_t sum = h->rawSum();
                std::uint64_t count = h->count();
                std::uint64_t max = h->max();
                ar(k, [&] {
                    ar("buckets", buckets);
                    ar("sum", sum);
                    ar("count", count);
                    ar("max", max);
                });
                if constexpr (Ar::loading)
                    h->restore(buckets, sum, count, max);
                break;
              }
            }
        }
    });
    ar("children", [&] {
        for (Group *c : g.children_)
            ar(c->name_, [&] { stateIo(ar, *c); });
    });
}

void
Group::io(json::Saver &ar) const
{
    stateIo(ar, *this);
}

void
Group::io(json::Loader &ar)
{
    stateIo(ar, *this);
}

const Group *
Group::findGroup(std::string_view path) const
{
    const Group *g = this;
    while (!path.empty()) {
        const auto dot = path.find('.');
        const std::string_view head = path.substr(0, dot);
        const Group *next = nullptr;
        for (const Group *c : g->children_) {
            if (c->name_ == head) {
                next = c;
                break;
            }
        }
        if (!next)
            return nullptr;
        g = next;
        path = dot == std::string_view::npos ? std::string_view{}
                                             : path.substr(dot + 1);
    }
    return g;
}

const Group::StatRef *
Group::findStat(std::string_view path, StatKind kind) const
{
    const Group *g = this;
    std::string_view leaf = path;
    const auto dot = path.rfind('.');
    if (dot != std::string_view::npos) {
        g = findGroup(path.substr(0, dot));
        leaf = path.substr(dot + 1);
    }
    if (!g)
        return nullptr;
    const auto it = g->stats_.find(leaf);
    if (it == g->stats_.end() || it->second.kind != kind)
        return nullptr;
    return &it->second;
}

const Counter *
Group::findCounter(std::string_view path) const
{
    const StatRef *s = findStat(path, StatKind::Counter);
    return s ? static_cast<const Counter *>(s->ptr) : nullptr;
}

const Average *
Group::findAverage(std::string_view path) const
{
    const StatRef *s = findStat(path, StatKind::Average);
    return s ? static_cast<const Average *>(s->ptr) : nullptr;
}

const Histogram *
Group::findHistogram(std::string_view path) const
{
    const StatRef *s = findStat(path, StatKind::Histogram);
    return s ? static_cast<const Histogram *>(s->ptr) : nullptr;
}

} // namespace stats

std::string
indexedName(const char *prefix, int index, int width)
{
    std::string digits = std::to_string(index);
    if (static_cast<int>(digits.size()) < width)
        digits.insert(0, width - digits.size(), '0');
    return prefix + digits;
}

} // namespace consim
