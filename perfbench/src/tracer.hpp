#pragma once
/// \file tracer.hpp
/// In-memory span recorder for the traced run. Spans are opened and closed
/// around calls into the library's public API from the benchmark's own
/// code; each records its name, host start/end, the enclosing span and the
/// training iteration it belongs to. Nothing is written until the run ends,
/// when write_chrome_trace() exports Chrome trace JSON (opens in Perfetto
/// next to the trainer's own trace.json).

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< enclosing span id, -1 at top level
  std::int64_t iter = -1;    ///< training iteration, -1 outside the loop
  std::int64_t job = 0;      ///< traced job (one Trainer-sized run)
  double start_us = 0.0;     ///< since the tracer was created
  double end_us = 0.0;

  double ms() const { return (end_us - start_us) * 1e-3; }
};

class Tracer {
 public:
  Tracer() : origin_(clock::now()) {}

  /// Open a span nested in the innermost open span; returns its id.
  std::int64_t begin(std::string name, std::int64_t iter);
  /// Close the innermost open span, which must be `id`; returns its length
  /// in milliseconds.
  double end(std::int64_t id);

  void set_job(std::int64_t job) { job_ = job; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (ms) of every span called `name` (all must be closed).
  std::vector<double> durations_ms(const std::string& name) const;
  /// Summed duration (ms) of every span called `name`.
  double total_ms(const std::string& name) const;

  /// Chrome trace format: one complete ('X') event per span with its id,
  /// parent and iteration in args.
  void write_chrome_trace(const std::string& path) const;

 private:
  using clock = std::chrono::steady_clock;
  double now_us() const {
    return std::chrono::duration<double, std::micro>(clock::now() - origin_)
        .count();
  }

  clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< indices into spans_, innermost last
  std::int64_t job_ = 0;
};

/// RAII span: open on construction, closed on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, std::int64_t iter)
      : tracer_(tracer), id_(tracer.begin(std::move(name), iter)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

}  // namespace perfbench
