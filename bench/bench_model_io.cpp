// Model-store I/O throughput: eager P2MDL001 load vs mmap.
//
// Builds a registry of N synthetic users (tiny but structurally complete
// models assembled via from_parts, so generation is cheap and the store
// shape matches real enrollments), then measures:
//
//   * save throughput and file size;
//   * eager load of the whole store vs MappedRegistry::open of the same
//     file (the eager loader parses and materializes every record, open
//     touches only the header and name index — this ratio is the gated
//     number);
//   * the paged path must open a 100k-user registry in under 2 s
//     (enforced here in full mode) while faulting in only the name
//     index, which the resident-set delta reports;
//   * per-lookup materialize latency out of the mapping.
//
// --quick runs a smaller store for CI; --users N overrides the store
// size.  Writes BENCH_model_io.json for tools/check_bench_regression.py.
#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/registry.hpp"
#include "io/binary.hpp"
#include "io/mmap_registry.hpp"
#include "util/resource.hpp"
#include "util/rng.hpp"

namespace {

using namespace p2auth;

// A minimal trained user: one 1-channel full model (the store-size and
// parse-cost shape of a real enrollment, scaled down ~60x so a 100k-user
// store stays a few hundred MB).
core::EnrolledUser make_user(util::Rng& rng, std::uint32_t id) {
  ml::MiniRocketOptions options;
  options.num_features = 168;
  options.max_dilations = 2;
  std::vector<double> biases(84 * 2);
  for (double& b : biases) b = rng.normal(0.0, 1.0);
  std::vector<ml::MiniRocket> channels;
  channels.push_back(ml::MiniRocket::from_parts(options, /*input_length=*/64,
                                                {1, 3}, 1, std::move(biases)));
  const std::size_t n_features = channels.back().num_features();
  auto rocket = ml::MultiChannelMiniRocket::from_parts(options,
                                                       std::move(channels));
  std::vector<double> weights(n_features);
  for (double& w : weights) w = rng.normal(0.0, 0.1);
  auto ridge = linalg::RidgeClassifier::from_parts(std::move(weights),
                                                   rng.normal(0.0, 0.5), 1.0);
  core::EnrolledUser user;
  user.pin = keystroke::Pin("1628");
  user.user_id = id;
  user.stats.full_positives = 9;
  user.full_model = core::WaveformModel::from_parts(
      std::move(rocket), std::move(ridge), rng.normal(0.0, 0.2));
  return user;
}

std::string user_name(std::uint32_t i) {
  return "user" + std::to_string(i);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::size_t users = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") quick = true;
    if (arg == "--users" && i + 1 < argc) users = std::stoul(argv[++i]);
  }
  if (users == 0) users = quick ? 2000 : 100000;

  bench::BenchReport report("model_io");
  util::Rng rng(42);
  const std::string path = "bench_model_io.p2mdl";

  // ---- build + save the full store -----------------------------------
  std::printf("building %zu synthetic users...\n", users);
  core::UserRegistry registry;
  const double build_s = bench::timed_s([&] {
    for (std::size_t i = 0; i < users; ++i) {
      registry.add(user_name(static_cast<std::uint32_t>(i)),
                   make_user(rng, static_cast<std::uint32_t>(i)));
    }
  });
  const double save_s = bench::timed_s(
      [&] { io::save_user_registry_binary_file(registry, path); });
  std::uintmax_t file_bytes = 0;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    file_bytes = static_cast<std::uintmax_t>(in.tellg());
  }
  const double file_mib = static_cast<double>(file_bytes) / (1024.0 * 1024.0);

  // ---- eager load vs mmap open of the full store ----------------------
  // Best of a few runs each, so one descheduled run does not move the
  // gated ratio.  The source registry is freed first so the eager copy
  // does not double the bench's peak memory.
  registry = core::UserRegistry{};
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double eager_load_s = kInf;
  for (int rep = 0; rep < 3; ++rep) {
    eager_load_s = std::min(eager_load_s, bench::timed_s([&] {
      const core::UserRegistry loaded =
          io::load_user_registry_binary_file(path);
      if (loaded.size() != users) std::abort();
    }));
  }

  const double rss_before = util::current_rss_mib();
  io::MappedRegistry mapped = io::MappedRegistry::open(path);
  double open_s = kInf;
  for (int rep = 0; rep < 5; ++rep) {
    open_s = std::min(open_s, bench::timed_s([&] {
      mapped = io::MappedRegistry::open(path);
    }));
  }
  const double rss_after_open = util::current_rss_mib();
  const double open_speedup = eager_load_s / open_s;

  const std::size_t lookups = std::min<std::size_t>(users, 200);
  std::size_t materialized = 0;
  const double lookup_s = bench::timed_s([&] {
    for (std::size_t i = 0; i < lookups; ++i) {
      const std::uint32_t pick = static_cast<std::uint32_t>(
          (i * 9973) % users);  // scattered across the arena
      const core::EnrolledUser u = mapped.materialize(user_name(pick));
      materialized += u.full_model.has_value() ? 1 : 0;
    }
  });
  const double rss_after_lookups = util::current_rss_mib();
  if (materialized != lookups) std::abort();

  util::Table table({"metric", "value"});
  table.begin_row().cell("users").cell(std::to_string(users));
  table.begin_row().cell("file size").cell(
      util::format_double(file_mib, 1) + " MiB");
  table.begin_row().cell("build").cell(util::format_double(build_s, 2) + " s");
  table.begin_row().cell("binary save").cell(
      util::format_double(save_s, 2) + " s");
  table.begin_row().cell("eager load").cell(
      util::format_double(eager_load_s * 1e3, 1) + " ms");
  table.begin_row().cell("mmap open").cell(
      util::format_double(open_s * 1e3, 2) + " ms");
  table.begin_row().cell("mmap open vs eager load speedup").cell(
      util::format_double(open_speedup, 1) + "x");
  table.begin_row().cell("rss delta after open").cell(
      util::format_double(rss_after_open - rss_before, 1) + " MiB");
  table.begin_row()
      .cell("materialize (" + std::to_string(lookups) + " lookups)")
      .cell(util::format_double(lookup_s * 1e6 / lookups, 1) + " us/user");
  table.begin_row().cell("rss delta after lookups").cell(
      util::format_double(rss_after_lookups - rss_before, 1) + " MiB");
  report.table(table, "model_io", "Model-store I/O (" +
                                      std::string(quick ? "quick" : "full") +
                                      ")");

  report.value("users", static_cast<std::uint64_t>(users));
  report.value("file_mib", file_mib);
  report.value("save_binary_s", save_s);
  report.value("eager_load_ms", eager_load_s * 1e3);
  report.value("mmap_open_ms", open_s * 1e3);
  report.value("mmap_open_vs_eager_load_speedup", open_speedup);
  report.value("rss_open_delta_mib", rss_after_open - rss_before);
  report.value("materialize_us_per_user", lookup_s * 1e6 / lookups);
  report.value("quick", quick);
  report.write();
  std::remove(path.c_str());

  // Acceptance bounds, enforced where they are meaningful: opening the
  // full 100k-user store must stay under 2 s, and open must not fault
  // the record arena in (budget: 1/8 of the file, far above the index).
  int rc = 0;
  if (!quick && users >= 100000 && open_s >= 2.0) {
    std::fprintf(stderr, "FAIL: mmap open took %.2f s (budget 2 s)\n",
                 open_s);
    rc = 1;
  }
  if (mapped.is_mapped() &&
      rss_after_open - rss_before > std::max(16.0, file_mib / 8.0)) {
    std::fprintf(stderr,
                 "FAIL: open faulted %.1f MiB resident (file %.1f MiB)\n",
                 rss_after_open - rss_before, file_mib);
    rc = 1;
  }
  return rc;
}
