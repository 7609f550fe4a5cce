#include "obs/registry.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace rrp::obs {

namespace detail {

namespace {
std::atomic<std::size_t> g_next_shard{0};
}  // namespace

std::size_t shard_index() noexcept {
  thread_local const std::size_t idx =
      g_next_shard.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
  return idx;
}

void atomic_add(std::atomic<double>& target, double delta) noexcept {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace detail

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      counts_(bounds_.size() + 1) {
  RRP_EXPECTS(!bounds_.empty());
  RRP_EXPECTS(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void Histogram::observe(double v) noexcept {
  std::size_t bucket = bounds_.size();  // overflow unless a bound fits
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (v <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sum_, v);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i)
    out[i] = counts_[i].load(std::memory_order_relaxed);
  return out;
}

namespace {

/// The series a histogram `X` adds to the scrape besides its own name.
constexpr std::string_view kHistogramSuffixes[] = {"_count", "_sum",
                                                   "_bucket"};

[[noreturn]] void reject_name(std::string_view name, const char* why) {
  throw InvalidArgument("obs::Registry: metric name '" + std::string(name) +
                        "' " + why);
}

}  // namespace

void Registry::check_new_scalar_name(std::string_view name) const {
  if (counters_.contains(name) || gauges_.contains(name) ||
      histograms_.contains(name))
    reject_name(name, "is already registered as another kind");
  for (std::string_view suffix : kHistogramSuffixes)
    if (name.ends_with(suffix) &&
        histograms_.contains(name.substr(0, name.size() - suffix.size())))
      reject_name(name, "collides with a histogram series");
}

void Registry::check_new_histogram_name(std::string_view name) const {
  if (counters_.contains(name) || gauges_.contains(name))
    reject_name(name, "is already registered as another kind");
  for (std::string_view suffix : kHistogramSuffixes) {
    const std::string series = std::string(name) + std::string(suffix);
    if (counters_.contains(series) || gauges_.contains(series))
      reject_name(name, "has a series named like an existing metric");
  }
}

Counter& Registry::counter(std::string_view name) {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    check_new_scalar_name(name);
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    check_new_scalar_name(name);
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> upper_bounds) {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    check_new_histogram_name(name);
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(upper_bounds)))
             .first;
  }
  return *it->second;
}

MetricsSnapshot Registry::scrape() const {
  MetricsSnapshot snap;
  MutexLock lock(mu_);
  snap.samples.reserve(counters_.size() + gauges_.size() +
                       histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricSample s;
    s.kind = MetricSample::Kind::Counter;
    s.name = name;
    s.value = static_cast<double>(c->value());
    snap.samples.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSample s;
    s.kind = MetricSample::Kind::Gauge;
    s.name = name;
    s.value = g->value();
    snap.samples.push_back(std::move(s));
  }
  for (const auto& [name, h] : histograms_) {
    MetricSample s;
    s.kind = MetricSample::Kind::Histogram;
    s.name = name;
    s.value = h->sum();
    s.count = h->count();
    s.bounds = h->upper_bounds();
    s.bucket_counts = h->bucket_counts();
    snap.samples.push_back(std::move(s));
  }
  return snap;
}

namespace {

/// Trims trailing zeros off the default double formatting so metric
/// text stays diff-friendly.
std::string format_number(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

std::string MetricsSnapshot::to_text() const {
  std::ostringstream os;
  for (const auto& s : samples) {
    switch (s.kind) {
      case MetricSample::Kind::Counter:
      case MetricSample::Kind::Gauge:
        os << s.name << ' ' << format_number(s.value) << '\n';
        break;
      case MetricSample::Kind::Histogram: {
        os << s.name << "_count " << s.count << '\n';
        os << s.name << "_sum " << format_number(s.value) << '\n';
        for (std::size_t i = 0; i < s.bucket_counts.size(); ++i) {
          os << s.name << "_bucket{le=\"";
          if (i < s.bounds.size())
            os << format_number(s.bounds[i]);
          else
            os << "+inf";
          os << "\"} " << s.bucket_counts[i] << '\n';
        }
        break;
      }
    }
  }
  return os.str();
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os << '{';
  const char* sep = "";
  os << "\"counters\":{";
  for (const auto& s : samples) {
    if (s.kind != MetricSample::Kind::Counter) continue;
    os << sep << '"' << s.name << "\":"
       << static_cast<std::uint64_t>(s.value);
    sep = ",";
  }
  os << "},\"gauges\":{";
  sep = "";
  for (const auto& s : samples) {
    if (s.kind != MetricSample::Kind::Gauge) continue;
    os << sep << '"' << s.name << "\":" << format_number(s.value);
    sep = ",";
  }
  os << "},\"histograms\":{";
  sep = "";
  for (const auto& s : samples) {
    if (s.kind != MetricSample::Kind::Histogram) continue;
    os << sep << '"' << s.name << "\":{\"count\":" << s.count
       << ",\"sum\":" << format_number(s.value) << ",\"bounds\":[";
    for (std::size_t i = 0; i < s.bounds.size(); ++i)
      os << (i ? "," : "") << format_number(s.bounds[i]);
    os << "],\"counts\":[";
    for (std::size_t i = 0; i < s.bucket_counts.size(); ++i)
      os << (i ? "," : "") << s.bucket_counts[i];
    os << "]}";
    sep = ",";
  }
  os << "}}";
  return os.str();
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& s : samples)
    if (s.kind == MetricSample::Kind::Counter && s.name == name)
      return static_cast<std::uint64_t>(s.value);
  return 0;
}

double MetricsSnapshot::gauge(std::string_view name) const {
  for (const auto& s : samples)
    if (s.kind == MetricSample::Kind::Gauge && s.name == name)
      return s.value;
  return 0.0;
}

Registry& global_registry() {
  static Registry registry;
  return registry;
}

}  // namespace rrp::obs
