#include "tracer.hpp"

#include <fstream>

#include "hylo/common/check.hpp"
#include "hylo/obs/json.hpp"

namespace perfbench {

std::int64_t Tracer::begin(std::string name, std::int64_t iter) {
  Span s;
  s.name = std::move(name);
  s.id = static_cast<std::int64_t>(spans_.size());
  s.parent = open_.empty() ? -1 : spans_[open_.back()].id;
  s.iter = iter;
  s.job = job_;
  s.start_us = now_us();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.back().id;
}

double Tracer::end(std::int64_t id) {
  HYLO_CHECK(!open_.empty() && spans_[open_.back()].id == id,
             "span " << id << " closed out of order");
  Span& s = spans_[open_.back()];
  open_.pop_back();
  s.end_us = now_us();
  return s.ms();
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_)
    if (s.name == name) out.push_back(s.ms());
  return out;
}

double Tracer::total_ms(const std::string& name) const {
  double sum = 0.0;
  for (const double ms : durations_ms(name)) sum += ms;
  return sum;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  using hylo::obs::Json;
  Json events = Json::array();
  for (const auto& s : spans_) {
    Json args = Json::object();
    args.set("span_id", s.id);
    args.set("parent_id", s.parent);
    args.set("iter", s.iter);
    args.set("job", s.job);
    Json e = Json::object();
    e.set("name", s.name);
    e.set("cat", s.name.substr(0, s.name.find('.')));
    e.set("ph", "X");
    e.set("pid", 1);
    e.set("tid", 1);
    e.set("ts", s.start_us);
    e.set("dur", s.end_us - s.start_us);
    e.set("args", std::move(args));
    events.push(std::move(e));
  }
  Json root = Json::object();
  root.set("traceEvents", std::move(events));
  root.set("displayTimeUnit", "ms");
  std::ofstream os(path);
  HYLO_CHECK(os.good(), "cannot write trace " << path);
  root.dump(os);
  os << '\n';
  HYLO_CHECK(os.good(), "failed writing trace " << path);
}

}  // namespace perfbench
