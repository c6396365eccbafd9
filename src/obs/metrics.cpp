#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "common/contracts.hpp"
#include "common/strings.hpp"

namespace steersim {

void MetricRegistry::add(std::string name, double value, bool derived) {
  STEERSIM_EXPECTS(!name.empty());
  const auto pos = lower_bound(name);
  STEERSIM_EXPECTS(pos == by_name_.end() || metrics_[*pos].name != name);
  by_name_.insert(pos, static_cast<std::uint32_t>(metrics_.size()));
  metrics_.push_back(Metric{std::move(name), value, derived});
}

std::vector<std::uint32_t>::const_iterator MetricRegistry::lower_bound(
    std::string_view name) const {
  const auto name_less = [this](std::uint32_t index, std::string_view key) {
    return std::string_view(metrics_[index].name) < key;
  };
  return std::lower_bound(by_name_.begin(), by_name_.end(), name, name_less);
}

const Metric* MetricRegistry::find(std::string_view name) const {
  const auto pos = lower_bound(name);
  if (pos == by_name_.end() || metrics_[*pos].name != name) {
    return nullptr;
  }
  return &metrics_[*pos];
}

std::string MetricRegistry::to_csv() const {
  std::string out = "metric,value\n";
  for (const Metric& m : metrics_) {
    out += m.name;
    out += ',';
    if (std::isnan(m.value)) {
      out += "nan";
    } else if (m.value == static_cast<double>(
                              static_cast<std::int64_t>(m.value)) &&
               std::abs(m.value) < 1e15) {
      // Counters render as integers, not "123.000000".
      out += std::to_string(static_cast<std::int64_t>(m.value));
    } else {
      out += format_double(m.value, 6);
    }
    out += '\n';
  }
  return out;
}

std::string MetricRegistry::to_json() const {
  std::string out = "{";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += '"';
    append_json_escaped(out, m.name);
    out += "\":";
    out += json_number(m.value);
  }
  out += '}';
  return out;
}

void MetricRegistry::dump_csv(const std::string& path) const {
  std::ofstream out(path);
  STEERSIM_EXPECTS(out.good());
  out << to_csv();
  out.flush();
  STEERSIM_ENSURES(out.good());
}

}  // namespace steersim
