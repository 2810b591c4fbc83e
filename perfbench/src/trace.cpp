#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

/// Small stable per-thread number for the trace's "tid" field.
int thread_number() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, std::string name, std::int64_t parent,
                     std::int64_t job)
    : tracer_(tracer) {
  if (tracer_ == nullptr) {
    span_.id = -1;
    return;
  }
  span_.name = std::move(name);
  span_.parent = parent;
  span_.job = job;
  span_.thread = thread_number();
  span_.id = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.start = tracer_->now();
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) {
    span_.end = tracer_->now();
    tracer_->record(std::move(span_));
  }
}

void Tracer::record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::write_chrome_json(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write trace file " + path.string());
  }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[512];
  for (const Span& s : spans()) {
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"cat\":\"oocc\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%lld,\"parent\":%lld,\"job\":%lld}}",
                  first ? "" : ",", s.name.c_str(), s.thread, s.start * 1e6,
                  s.duration() * 1e6, static_cast<long long>(s.id),
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.job));
    out << buf;
    first = false;
  }
  out << "\n]}\n";
  if (!out) {
    throw std::runtime_error("failed writing trace file " + path.string());
  }
}

}  // namespace perfbench
