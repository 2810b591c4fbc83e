// The serve workload: an in-process serve::Server driven through
// handle_line by two closed-loop client threads, one per tenant.
//
// A round is a fixed list of fifteen requests per tenant: nine first-sight
// compile requests (plan-cache misses), four repeats of earlier programs
// (hits) and two small run ops at p = 2. With an odd count per tenant the
// median request falls in the middle of one program's latency class, not
// on the boundary between two. The plan cache is cleared between rounds,
// so every round has exactly the same misses, hits and run ops however many
// rounds fit in a run. The two tenants' programs are distinct, so no request
// ever joins another tenant's in-flight compile. The seed shuffles each
// tenant's request order and picks the constants of its elementwise chains;
// it changes no program's size.
#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <random>
#include <thread>

#include "oocc/apps/jacobi.hpp"
#include "oocc/hpf/parser.hpp"
#include "oocc/serve/hash.hpp"
#include "oocc/serve/job.hpp"
#include "oocc/serve/server.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

namespace serve = oocc::serve;

constexpr int kTenants = 2;
constexpr int kRunIters = 2;  ///< sweeps of the stencil run op

enum class Shape { kGaxpy, kChain, kStencil };

/// One first-sight program of a tenant's round.
struct ProgramSpec {
  Shape shape;
  std::int64_t n;
  int p;
  bool search;
};

// Per tenant and round. Indices 1, 4, 6 and 7 are repeated as hits; 5 and 8
// are also run (p = 2, so two concurrent run ops use four rank threads).
constexpr ProgramSpec kPrograms[] = {
    {Shape::kGaxpy, 256, 2, false},   {Shape::kGaxpy, 512, 4, false},
    {Shape::kGaxpy, 256, 4, true},    {Shape::kChain, 512, 4, false},
    {Shape::kChain, 1024, 2, true},   {Shape::kChain, 256, 2, false},
    {Shape::kStencil, 1024, 4, false}, {Shape::kStencil, 512, 2, true},
    {Shape::kStencil, 256, 2, false},
};
constexpr int kHits[] = {1, 4, 6, 7};
constexpr int kRuns[] = {5, 8};

enum class Kind { kMiss, kHit, kRun };

struct Request {
  Kind kind;
  int program;  ///< index into the tenant's program list
  std::string line;
};

struct Tenant {
  std::vector<std::string> sources;    ///< per program
  std::vector<std::uint64_t> digests;  ///< expected plan-cache key digests
  std::vector<std::int64_t> coeffs;    ///< chain constant per program
  std::vector<Request> requests;       ///< one round, in order
};

std::string suffix(int tenant, int program) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "%d%02d", tenant, program);
  return buf;
}

std::string source_of(const ProgramSpec& spec, const std::string& t,
                      std::int64_t coeff) {
  char buf[1024];
  const long n = static_cast<long>(spec.n);
  const char* head =
      "      parameter (n=%ld, p=%d)\n"
      "!hpf$ processors Pr(p)\n"
      "!hpf$ template d(n)\n"
      "!hpf$ distribute d(block) onto Pr\n";
  std::string src;
  std::snprintf(buf, sizeof(buf), head, n, spec.p);
  src = buf;
  const char* t_ = t.c_str();
  switch (spec.shape) {
    case Shape::kGaxpy:
      std::snprintf(buf, sizeof(buf),
                    "      real a%s(n,n), b%s(n,n), c%s(n,n), t%s(n,n)\n"
                    "!hpf$ align (*,:) with d :: a%s, c%s, t%s\n"
                    "!hpf$ align (:,*) with d :: b%s\n"
                    "      do j=1, n\n"
                    "        forall (k=1:n)\n"
                    "          t%s(1:n,k) = b%s(k,j)*a%s(1:n,k)\n"
                    "        end forall\n"
                    "        c%s(1:n,j) = SUM(t%s,2)\n"
                    "      end do\n",
                    t_, t_, t_, t_, t_, t_, t_, t_, t_, t_, t_, t_, t_);
      break;
    case Shape::kChain:
      std::snprintf(buf, sizeof(buf),
                    "      real x%s(n,n), y%s(n,n), z%s(n,n), w%s(n,n)\n"
                    "!hpf$ align (*,:) with d :: x%s, y%s, z%s, w%s\n"
                    "      forall (k=1:n)\n"
                    "        y%s(1:n,k) = x%s(1:n,k)*%ld + 1\n"
                    "      end forall\n"
                    "      forall (k=1:n)\n"
                    "        z%s(1:n,k) = y%s(1:n,k)*x%s(1:n,k)\n"
                    "      end forall\n"
                    "      forall (k=1:n)\n"
                    "        w%s(1:n,k) = z%s(1:n,k) + y%s(1:n,k)*x%s(1:n,k)\n"
                    "      end forall\n",
                    t_, t_, t_, t_, t_, t_, t_, t_, t_, t_,
                    static_cast<long>(coeff), t_, t_, t_, t_, t_, t_, t_);
      break;
    case Shape::kStencil:
      std::snprintf(buf, sizeof(buf),
                    "      real a%s(n,n), b%s(n,n)\n"
                    "!hpf$ align (*,:) with d :: a%s, b%s\n"
                    "      forall (k=2:n-1)\n"
                    "        b%s(2:n-1,k) = (a%s(1:n-2,k) + a%s(3:n,k) + "
                    "a%s(2:n-1,k-1) + a%s(2:n-1,k+1))/4\n"
                    "      end forall\n",
                    t_, t_, t_, t_, t_, t_, t_, t_, t_);
      break;
  }
  src += buf;
  src += "      end\n";
  return src;
}

std::string request_line(const std::string& tenant, Kind kind,
                         const std::string& source, bool search) {
  serve::Json req = serve::Json::object();
  req.set("tenant", tenant);
  req.set("op", kind == Kind::kRun ? "run" : "compile");
  req.set("program", source);
  if (search) {
    req.set("opt", "search");
  }
  if (kind == Kind::kRun) {
    req.set("iters", kRunIters);
  }
  return req.dump();
}

/// The seeded request mix. Both tenants get the same shapes; the seed
/// draws chain constants and shuffles each tenant's order, keeping every
/// hit and run op after its program's first sight.
std::vector<Tenant> make_mix(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Tenant> tenants(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    Tenant& ten = tenants[static_cast<std::size_t>(t)];
    const std::string name = "t" + std::to_string(t);
    const int count = static_cast<int>(std::size(kPrograms));
    for (int i = 0; i < count; ++i) {
      const std::int64_t coeff = 2 + static_cast<std::int64_t>(rng() % 8);
      ten.coeffs.push_back(coeff);
      ten.sources.push_back(source_of(kPrograms[i], suffix(t, i), coeff));
    }
    std::vector<Request> pending;
    for (int i = 0; i < count; ++i) {
      pending.push_back({Kind::kMiss, i,
                         request_line(name, Kind::kMiss, ten.sources[static_cast<std::size_t>(i)],
                                      kPrograms[i].search)});
    }
    for (const int i : kHits) {
      pending.push_back({Kind::kHit, i,
                         request_line(name, Kind::kHit, ten.sources[static_cast<std::size_t>(i)],
                                      kPrograms[i].search)});
    }
    for (const int i : kRuns) {
      pending.push_back({Kind::kRun, i,
                         request_line(name, Kind::kRun, ten.sources[static_cast<std::size_t>(i)],
                                      kPrograms[i].search)});
    }
    // Random topological order: repeatedly pick a request whose program
    // has already been seen (or a first sight).
    std::vector<bool> seen(static_cast<std::size_t>(count), false);
    while (!pending.empty()) {
      std::vector<std::size_t> ready;
      for (std::size_t k = 0; k < pending.size(); ++k) {
        if (pending[k].kind == Kind::kMiss ||
            seen[static_cast<std::size_t>(pending[k].program)]) {
          ready.push_back(k);
        }
      }
      const std::size_t pick = ready[rng() % ready.size()];
      if (pending[pick].kind == Kind::kMiss) {
        seen[static_cast<std::size_t>(pending[pick].program)] = true;
      }
      ten.requests.push_back(std::move(pending[pick]));
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  return tenants;
}

/// Serial result fingerprint of a run op, as serve's run_job computes it
/// over the compiled outputs.
std::uint64_t run_reference(const ProgramSpec& spec, const std::string& t,
                            std::int64_t coeff) {
  const std::int64_t n = spec.n;
  const auto size = static_cast<std::size_t>(n * n);
  if (spec.shape == Shape::kStencil) {
    const std::vector<double> state =
        oocc::apps::serial_jacobi(n, kRunIters, serve::input_gen_a);
    const std::string live = (kRunIters % 2 == 0 ? "a" : "b") + t;
    return serve::hash_named_array(live, state, serve::kFnvOffsetBasis);
  }
  std::vector<double> x(size), y(size), z(size), w(size);
  for (std::int64_t c = 0; c < n; ++c) {
    for (std::int64_t r = 0; r < n; ++r) {
      const auto i = static_cast<std::size_t>(c * n + r);
      x[i] = serve::input_gen_a(r, c);
      y[i] = x[i] * static_cast<double>(coeff) + 1.0;
      z[i] = y[i] * x[i];
      w[i] = z[i] + y[i] * x[i];
    }
  }
  std::uint64_t h = serve::kFnvOffsetBasis;
  h = serve::hash_named_array("w" + t, w, h);
  h = serve::hash_named_array("y" + t, y, h);
  return serve::hash_named_array("z" + t, z, h);
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Latencies and outcomes of the requests of one or more rounds.
struct Samples {
  std::vector<double> all, miss, hit, run;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  double check_s = 0.0;

  void merge(const Samples& o) {
    all.insert(all.end(), o.all.begin(), o.all.end());
    miss.insert(miss.end(), o.miss.begin(), o.miss.end());
    hit.insert(hit.end(), o.hit.begin(), o.hit.end());
    run.insert(run.end(), o.run.begin(), o.run.end());
    attempted += o.attempted;
    failed += o.failed;
    check_s += o.check_s;
  }
};

/// What the workload expects of each response.
struct Expected {
  std::vector<Tenant> tenants;
  std::vector<std::uint64_t> run_hashes;  ///< tenant-major, kRuns order
  /// Plan counts and simulated times seen first, per (tenant, program):
  /// every later round must repeat them exactly.
  std::map<std::pair<int, int>, std::int64_t> plans;
  std::map<std::pair<int, int>, double> sim_s;
  std::mutex mu;
};

std::int64_t run_elements(const ProgramSpec& spec) {
  // chain: three output arrays; stencil: one array per sweep.
  return spec.n * spec.n * (spec.shape == Shape::kChain ? 3 : kRunIters);
}

bool check_response(const serve::Json& resp, int tenant, const Request& req,
                    Expected& expected) {
  if (!resp.get_bool("ok", false)) {
    return false;
  }
  const Tenant& ten = expected.tenants[static_cast<std::size_t>(tenant)];
  const auto prog = static_cast<std::size_t>(req.program);
  if (resp.get_bool("cache_hit", false) != (req.kind != Kind::kMiss) ||
      resp.get_string("key_digest", "") != hex64(ten.digests[prog])) {
    return false;
  }
  const std::pair<int, int> key{tenant, req.program};
  std::lock_guard<std::mutex> lock(expected.mu);
  const std::int64_t plans = resp.get_int("plans", -1);
  if (expected.plans.emplace(key, plans).first->second != plans) {
    return false;
  }
  if (req.kind != Kind::kRun) {
    return true;
  }
  const std::size_t run_index =
      static_cast<std::size_t>(tenant) * std::size(kRuns) +
      static_cast<std::size_t>(std::find(std::begin(kRuns), std::end(kRuns), req.program) -
                               std::begin(kRuns));
  const double sim = resp.get_double("sim_s", -1.0);
  return resp.get_string("result_hash", "") == hex64(expected.run_hashes[run_index]) &&
         expected.sim_s.emplace(key, sim).first->second == sim;
}

struct Rounds {
  Samples untraced;
  Samples traced;
  std::vector<double> untraced_round_s;  ///< wall of each untraced round
  int count = 0;
};

/// Runs whole rounds from both tenants' client threads until `seconds`
/// have passed (at least `min_rounds`), clearing the plan cache after each
/// round. Traced runs trace every other round.
Rounds run_rounds(serve::Server& server, Expected& expected, double seconds,
                  int min_rounds, Tracer* tracer) {
  std::vector<Samples> untraced(kTenants), traced(kTenants);
  Rounds result;
  bool stop = false;
  const auto start = std::chrono::steady_clock::now();
  auto round_start = start;
  std::barrier sync(kTenants, [&]() noexcept {
    const auto now = std::chrono::steady_clock::now();
    if (tracer == nullptr || result.count % 2 == 1) {
      result.untraced_round_s.push_back(
          std::chrono::duration<double>(now - round_start).count());
    }
    round_start = now;
    server.cache().clear();
    ++result.count;
    stop = result.count >= min_rounds && seconds_since(start) >= seconds;
  });
  auto client = [&](int t) {
    const Tenant& ten = expected.tenants[static_cast<std::size_t>(t)];
    for (int round = 0;; ++round) {
      Tracer* tr = tracer != nullptr && round % 2 == 0 ? tracer : nullptr;
      Samples& out = (tr != nullptr ? traced : untraced)[static_cast<std::size_t>(t)];
      {
        Tracer::Scope root(tr, "bench.client_round", -1, round);
        for (const Request& req : ten.requests) {
          const auto t0 = std::chrono::steady_clock::now();
          serve::Json resp = [&] {
            Tracer::Scope s(tr, "serve.handle_line", root.id(), round);
            return server.handle_line(req.line);
          }();
          const double dt = seconds_since(t0);
          const auto c0 = std::chrono::steady_clock::now();
          Tracer::Scope check(tr, "bench.check", root.id(), round);
          out.all.push_back(dt);
          (req.kind == Kind::kMiss ? out.miss : req.kind == Kind::kHit ? out.hit : out.run)
              .push_back(dt);
          ++out.attempted;
          if (!check_response(resp, t, req, expected)) {
            ++out.failed;
          }
          out.check_s += seconds_since(c0);
        }
        Tracer::Scope wait(tr, "bench.round_wait", root.id(), round);
        sync.arrive_and_wait();
      }
      if (stop) {
        return;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 1; t < kTenants; ++t) {
    threads.emplace_back(client, t);
  }
  client(0);
  for (std::thread& th : threads) {
    th.join();
  }
  for (int t = 0; t < kTenants; ++t) {
    result.untraced.merge(untraced[static_cast<std::size_t>(t)]);
    result.traced.merge(traced[static_cast<std::size_t>(t)]);
  }
  return result;
}

}  // namespace

std::string serve_reference(std::uint64_t seed) {
  const std::vector<Tenant> tenants = make_mix(seed);
  std::string out;
  for (int t = 0; t < kTenants; ++t) {
    for (const int i : kRuns) {
      const std::uint64_t h =
          run_reference(kPrograms[i], suffix(t, i),
                        tenants[static_cast<std::size_t>(t)].coeffs[static_cast<std::size_t>(i)]);
      out.append(reinterpret_cast<const char*>(&h), sizeof(h));
    }
  }
  return out;
}

Report run_serve_workload(const RunConfig& config, const std::string& reference) {
  Report rep;
  Expected expected;
  expected.tenants = make_mix(config.seed);
  for (std::size_t i = 0; i + sizeof(std::uint64_t) <= reference.size();
       i += sizeof(std::uint64_t)) {
    std::uint64_t h = 0;
    std::memcpy(&h, reference.data() + i, sizeof(h));
    expected.run_hashes.push_back(h);
  }
  // Expected cache keys, and an admission budget of one and a half of the
  // largest run-op footprint: two tenants' run ops that meet queue.
  std::int64_t max_footprint = 0;
  for (Tenant& ten : expected.tenants) {
    for (std::size_t i = 0; i < ten.sources.size(); ++i) {
      const oocc::hpf::BoundProgram bound =
          oocc::hpf::analyze(oocc::hpf::parse(ten.sources[i]));
      oocc::compiler::CompileOptions o;
      o.memory_budget_elements = serve::default_memory_budget(bound);
      o.opt = kPrograms[i].search ? oocc::compiler::OptMode::kSearch
                                  : oocc::compiler::OptMode::kHeuristic;
      ten.digests.push_back(serve::make_plan_key(bound, o).digest());
      if (std::find(std::begin(kRuns), std::end(kRuns), static_cast<int>(i)) !=
          std::end(kRuns)) {
        max_footprint = std::max(max_footprint, bound.nprocs * o.memory_budget_elements);
      }
    }
  }
  serve::ServerOptions options;
  options.total_budget_elements = max_footprint * 3 / 2;

  // Set-up: construct the server and run one warm-up round. Repeated;
  // setup_s is the median.
  std::vector<double> setups;
  std::unique_ptr<serve::Server> server;
  Samples warm;
  for (int i = 0; i < kSetups; ++i) {
    server.reset();
    const auto t0 = std::chrono::steady_clock::now();
    options.work_root = config.workdir / ("serve-" + std::to_string(i));
    server = std::make_unique<serve::Server>(options);
    warm.merge(run_rounds(*server, expected, 0.0, 1, nullptr).untraced);
    setups.push_back(seconds_since(t0));
  }

  const serve::PlanCache::Stats cache0 = server->cache().stats();
  const serve::AdmissionController::Stats adm0 = server->admission().stats();
  Tracer tracer;
  const Rounds timed = run_rounds(*server, expected, config.seconds, 2,
                                  config.trace ? &tracer : nullptr);
  const Samples& s = timed.untraced;
  const Samples& traced = timed.traced;
  const serve::PlanCache::Stats cache1 = server->cache().stats();
  const serve::AdmissionController::Stats adm1 = server->admission().stats();
  server.reset();

  const std::int64_t misses_per_round =
      static_cast<std::int64_t>(std::size(kPrograms)) * kTenants;
  rep.attempted = warm.attempted + s.attempted + traced.attempted;
  rep.failed = warm.failed + s.failed + traced.failed;
  // Determinism guard: the miss count is fixed by construction.
  if (cache1.misses - cache0.misses !=
      static_cast<std::uint64_t>(misses_per_round * timed.count)) {
    ++rep.failed;
  }
  const auto n = static_cast<std::int64_t>(s.all.size());
  // p95 sits inside the slowest seventh of the mix (the two GAXPY compiles
  // of each tenant's fifteen requests), away from any class boundary. It
  // is printed but is not an end-to-end metric (NOTES.md).
  const double tail_p = tail_percentile(n, 95.0);
  // Throughput is per round: every round carries the same requests and
  // run-op elements, so the median round wall gives both rates.
  const double round_s = median(timed.untraced_round_s);
  double round_requests = 0.0;
  std::int64_t round_elements = 0;
  for (const Tenant& ten : expected.tenants) {
    round_requests += static_cast<double>(ten.requests.size());
    for (const int i : kRuns) {
      round_elements += run_elements(kPrograms[i]);
    }
  }
  rep.e2e("setup_s", median(setups), "s");
  rep.e2e("job_s_p50", median(s.all), "s");
  rep.e2e("jobs_per_s", round_requests / round_s, "1/s");
  rep.e2e("melem_per_s", static_cast<double>(round_elements) / 1e6 / round_s, "Melem/s");
  rep.e2e("compile_ms_p50", median(s.miss) * 1e3, "ms");
  // Mean simulated makespan of the round's run ops, from the first-seen
  // values every later round was checked against.
  double run_sim_s = 0.0;
  for (int t = 0; t < kTenants; ++t) {
    for (const int i : kRuns) {
      run_sim_s += expected.sim_s[{t, i}];
    }
  }
  run_sim_s /= static_cast<double>(kTenants * std::size(kRuns));
  rep.e2e("sim_makespan_s", run_sim_s, "sim_s");
  rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  rep.e2e("ok_frac",
          static_cast<double>(rep.attempted - rep.failed) / static_cast<double>(rep.attempted),
          "ratio");
  rep.counters["serve.misses"] = static_cast<double>(misses_per_round);
  rep.counters["sim_makespan_s"] = run_sim_s;
  char line[256];
  std::snprintf(line, sizeof(line),
                "serve: %d rounds, %lld untraced requests, job_s tail p%.0f = %.4f s",
                timed.count, static_cast<long long>(n), tail_p, percentile(s.all, tail_p));
  rep.lines.push_back(line);

  if (config.trace) {
    const std::uint64_t hits = cache1.hits - cache0.hits;
    const std::uint64_t misses = cache1.misses - cache0.misses;
    const double admitted = static_cast<double>(adm1.admitted - adm0.admitted);
    rep.layer("serve.hit_ratio",
              static_cast<double>(hits) / static_cast<double>(hits + misses), "ratio");
    rep.layer("serve.misses", static_cast<double>(misses_per_round), "count");
    rep.layer("serve.joins", static_cast<double>(cache1.inflight_waits - cache0.inflight_waits),
              "count");
    rep.layer("serve.hit_ms_p50", median(traced.hit) * 1e3, "ms");
    rep.layer("serve.run_ms_p50", median(traced.run) * 1e3, "ms");
    rep.layer("serve.admission_wait_ms",
              (adm1.wait_time_s - adm0.wait_time_s) * 1e3 / std::max(1.0, admitted), "ms");
    rep.layer("serve.failed", static_cast<double>(rep.failed), "count");

    std::vector<std::string> sources;
    for (const Tenant& ten : expected.tenants) {
      sources.insert(sources.end(), ten.sources.begin(), ten.sources.end());
    }
    probe_compiler(sources, rep);

    // Execution layers are not visible through handle_line: run tenant 0's
    // chain run op directly, traced, a few times.
    const int prog = kRuns[0];
    ProgramJob job;
    job.source = expected.tenants[0].sources[static_cast<std::size_t>(prog)];
    job.input = [](const std::string&, std::int64_t r, std::int64_t c) {
      return serve::input_gen_a(r, c);
    };
    oocc::sim::Machine machine(kPrograms[prog].p,
                               oocc::sim::MachineCostModel::touchstone_delta());
    Tracer exec_tracer;
    std::vector<JobResult> results;
    std::vector<std::int64_t> ids;
    for (int i = 0; i < 5; ++i) {
      results.push_back(run_program_job(machine, job, config.workdir, &exec_tracer, i));
      results.back().outputs.clear();
      ids.push_back(i);
    }
    report_job_layers(results, exec_tracer.spans(), ids, rep);
    rep.layer("bench.check_s", s.check_s + traced.check_s, "s");
    rep.layer("bench.trace_overhead", median(traced.all) / median(s.all) - 1.0, "ratio");
    const std::vector<Span> spans = tracer.spans();
    trace_summary(spans, rep);
    tracer.write_chrome_json(config.trace_out);
  }
  return rep;
}

}  // namespace perfbench
