// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own code, around each call into
// an oocc layer; nothing inside the library is instrumented. Recording
// appends to one mutex-guarded vector (a job records a few dozen spans, so
// contention is negligible next to the work they time). Spans are written
// out as Chrome trace-event JSON only after the timed phase ends.
#pragma once

#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

class Tracer {
 public:
  Tracer();

  /// Seconds since the tracer was created.
  double now() const;

  /// RAII span: records [construction, destruction) under `name`. A null
  /// tracer makes it a no-op, which is how untraced jobs run.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, std::int64_t parent,
          std::int64_t job);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Id to pass as `parent` to nested spans (-1 when untraced).
    std::int64_t id() const noexcept { return span_.id; }

   private:
    Tracer* tracer_;
    Span span_;
  };

  std::vector<Span> spans() const;

  /// Writes every span as a Chrome trace-event ("ph":"X") JSON file,
  /// viewable in Perfetto or chrome://tracing.
  void write_chrome_json(const std::filesystem::path& path) const;

 private:
  void record(Span span);

  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::int64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
