// The oracle check must catch a wrong answer: a perturbed reference has to
// drive ok_frac below 1, and the true reference has to give exactly 1.
#include <gtest/gtest.h>

#include <filesystem>

#include "workload.hpp"

namespace perfbench {
namespace {

double ok_frac(const Report& report) {
  for (const Metric& m : report.end_to_end) {
    if (m.name == "ok_frac") {
      return m.value;
    }
  }
  ADD_FAILURE() << "no ok_frac metric";
  return -1.0;
}

RunConfig small_config(const std::string& name) {
  RunConfig config;
  config.seed = 7;
  config.seconds = 0.0;  // the minimum number of jobs
  config.workdir = std::filesystem::current_path() / ("perfbench-test-" + name);
  return config;
}

TEST(Oracle, JacobiPerturbedReferenceFails) {
  const ArraySpec spec{"jacobi", 64, 2, 3};
  const RunConfig config = small_config("jacobi");
  ArrayReference ref = array_reference(spec, config.seed);
  EXPECT_DOUBLE_EQ(ok_frac(run_array_workload(spec, config, ref)), 1.0);
  ref.hash ^= 1;
  const Report bad = run_array_workload(spec, config, ref);
  EXPECT_LT(ok_frac(bad), 1.0);
  EXPECT_EQ(bad.failed, bad.attempted);
  std::filesystem::remove_all(config.workdir);
}

TEST(Oracle, GaxpyPerturbedReferenceFails) {
  const ArraySpec spec{"gaxpy", 64, 2, 1};
  const RunConfig config = small_config("gaxpy");
  ArrayReference ref = array_reference(spec, config.seed);
  EXPECT_DOUBLE_EQ(ok_frac(run_array_workload(spec, config, ref)), 1.0);
  ref.data[ref.data.size() / 2] += 1e-6;
  EXPECT_LT(ok_frac(run_array_workload(spec, config, ref)), 1.0);
  std::filesystem::remove_all(config.workdir);
}

TEST(Oracle, ServeWrongRunHashFails) {
  RunConfig config = small_config("serve");
  std::string ref = serve_reference(config.seed);
  EXPECT_DOUBLE_EQ(ok_frac(run_serve_workload(config, ref)), 1.0);
  ref[0] = static_cast<char>(ref[0] ^ 1);
  EXPECT_LT(ok_frac(run_serve_workload(config, ref)), 1.0);
  std::filesystem::remove_all(config.workdir);
}

}  // namespace
}  // namespace perfbench
