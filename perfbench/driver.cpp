// Benchmark driver: runs one workload per process against the public
// core / service / io / ml / linalg API and prints one JSON result line.
//
//   p2auth_perfbench --workload device_mixed|enroll_publish
//                    --seed N --seconds S --trace 0|1 --tmpdir DIR
//
// --trace 0 is the timed run: obs recording off, end-to-end metrics.
// --trace 1 is the traced run: the same timed phase with obs recording
// switched on in alternate half-second blocks (or rounds), then replays
// of the run's own inputs through each layer's public call, timed here,
// and an open loop of requests into the service over a store of the
// run's users.  README.md explains the workloads and the metric -> layer
// table.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "backend/policy.hpp"
#include "core/authenticator.hpp"
#include "core/enrollment.hpp"
#include "core/registry.hpp"
#include "harness.hpp"
#include "io/binary.hpp"
#include "io/mmap_registry.hpp"
#include "keystroke/pinpad.hpp"
#include "obs/obs.hpp"
#include "service/checksum.hpp"
#include "service/service.hpp"
#include "service/source.hpp"
#include "sim/attacks.hpp"
#include "sim/dataset.hpp"
#include "util/rng.hpp"

namespace {

using namespace p2auth;
using Clock = std::chrono::steady_clock;
using perfbench::percentile;
using perfbench::ResultWriter;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

template <typename F>
double time_us(F&& f) {
  const Clock::time_point t0 = Clock::now();
  std::forward<F>(f)();
  return us_between(t0, Clock::now());
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Command line.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tmpdir;
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value: " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
    } else if (arg == "--trace") {
      o.trace = value == "1";
    } else if (arg == "--tmpdir") {
      o.tmpdir = value;
    } else {
      throw std::invalid_argument("unknown option: " + arg);
    }
  }
  if (o.tmpdir.empty()) throw std::invalid_argument("--tmpdir is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

// ---------------------------------------------------------------------------
// Host facts and process resources.

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(0);
  return cpus;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// A fixed driver-owned loop: its time tracks host speed and contention,
// never the code under test.  Reported, never used to scale a metric.
volatile double g_host_ref_sink = 0.0;
double host_ref_us() {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  double acc = 0.0;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += static_cast<double>(x & 0xffffu) * 1e-3;
  }
  g_host_ref_sink = acc;
  return us_between(t0, Clock::now());
}

// Moves one thread round-robin over the allowed CPUs in fixed slices, so
// a single-threaded measurement samples every CPU equally instead of
// whichever one the scheduler (or a noisy neighbour) favoured.  Records
// how late each move ran.
class CpuRotator {
 public:
  CpuRotator(pthread_t target, std::vector<int> cpus,
             std::chrono::milliseconds slice)
      : target_(target), cpus_(std::move(cpus)), slice_(slice) {
    pin(0);
    thread_ = std::thread([this] { run(); });
  }
  ~CpuRotator() { stop(); }
  CpuRotator(const CpuRotator&) = delete;
  CpuRotator& operator=(const CpuRotator&) = delete;

  void stop() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.notify_all();
    thread_.join();
    cpu_set_t all;
    CPU_ZERO(&all);
    for (const int c : cpus_) CPU_SET(c, &all);
    pthread_setaffinity_np(target_, sizeof all, &all);
  }

  // Only valid after stop().
  const std::vector<double>& lateness_us() const { return lateness_us_; }

 private:
  void pin(std::size_t k) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    pthread_setaffinity_np(target_, sizeof one, &one);
  }

  void run() {
    Clock::time_point due = Clock::now() + slice_;
    std::unique_lock<std::mutex> lock(mu_);
    for (std::size_t k = 1;; ++k) {
      if (cv_.wait_until(lock, due, [this] { return stopped_; })) return;
      lateness_us_.push_back(std::max(0.0, us_between(due, Clock::now())));
      pin(k);
      due += slice_;
    }
  }

  pthread_t target_;
  std::vector<int> cpus_;
  std::chrono::milliseconds slice_;
  std::mutex mu_;  // guards stopped_
  std::condition_variable cv_;
  bool stopped_ = false;
  std::vector<double> lateness_us_;  // written by thread_ only
  std::thread thread_;
};

// Store files of this process; every one is removed when the run ends,
// on error paths too.
class TempFiles {
 public:
  explicit TempFiles(std::string dir) : dir_(std::move(dir)) {
    std::filesystem::create_directories(dir_);
  }
  ~TempFiles() {
    for (const std::string& p : paths_) {
      std::error_code ec;
      std::filesystem::remove(p, ec);
    }
  }
  TempFiles(const TempFiles&) = delete;
  TempFiles& operator=(const TempFiles&) = delete;

  std::string make(const std::string& stem) {
    paths_.push_back(dir_ + "/" + stem + "-" + std::to_string(getpid()) +
                     "-" + std::to_string(paths_.size()) + ".p2mdl");
    return paths_.back();
  }
  static void remove(const std::string& path) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }

 private:
  std::string dir_;
  std::vector<std::string> paths_;
};

double file_mib(const std::string& path) {
  return static_cast<double>(std::filesystem::file_size(path)) /
         (1024.0 * 1024.0);
}

// ---------------------------------------------------------------------------
// Decision cases, keyed on AuthResult::detected_case / model_path.

enum class CaseKey { kWrongPin, kOneHanded, kBoost, kTwoHanded3, kTwoHanded2,
                     kNoPin, kOther };
constexpr CaseKey kModelCases[] = {CaseKey::kOneHanded, CaseKey::kBoost,
                                   CaseKey::kTwoHanded3, CaseKey::kTwoHanded2,
                                   CaseKey::kNoPin};

const char* case_name(CaseKey k) {
  switch (k) {
    case CaseKey::kWrongPin: return "wrong_pin";
    case CaseKey::kOneHanded: return "one_handed";
    case CaseKey::kBoost: return "boost";
    case CaseKey::kTwoHanded3: return "two_handed3";
    case CaseKey::kTwoHanded2: return "two_handed2";
    case CaseKey::kNoPin: return "no_pin";
    case CaseKey::kOther: return "other";
  }
  return "other";
}

CaseKey case_of(const core::AuthResult& r) {
  if (r.reason == core::RejectReason::kWrongPin) return CaseKey::kWrongPin;
  switch (r.model_path) {
    case core::ModelPath::kFullWaveform: return CaseKey::kOneHanded;
    case core::ModelPath::kBoost: return CaseKey::kBoost;
    case core::ModelPath::kPerKeyVotes:
      switch (r.detected_case) {
        case core::DetectedCase::kOneHanded: return CaseKey::kNoPin;
        case core::DetectedCase::kTwoHandedThree: return CaseKey::kTwoHanded3;
        case core::DetectedCase::kTwoHandedTwo: return CaseKey::kTwoHanded2;
        default: return CaseKey::kOther;
      }
    default: return CaseKey::kOther;
  }
}

// ---------------------------------------------------------------------------
// Simulated inputs.  Everything below derives from --seed; generation and
// the correctness oracle are excluded from set-up time.

enum class Kind { kStandard, kBoost, kNoPin };

struct Subject {
  const ppg::UserProfile* profile = nullptr;
  keystroke::Pin typed;  // what the user types
  Kind kind = Kind::kStandard;
  std::vector<core::Observation> own;  // enrollment entries
  keystroke::Pin enrolled_pin() const {
    return kind == Kind::kNoPin ? keystroke::Pin() : typed;
  }
};

enum class TrialType { kGenuineOne, kGenuineThree, kGenuineTwo, kEmulating,
                       kRandom };

bool is_genuine(TrialType t) {
  return t == TrialType::kGenuineOne || t == TrialType::kGenuineThree ||
         t == TrialType::kGenuineTwo;
}

struct Attempt {
  core::Observation obs;
  std::size_t user = 0;  // index into the workload's user list
  bool genuine = true;
  CaseKey key = CaseKey::kOther;
  bool accepted = false;       // oracle decision
  std::uint64_t checksum = 0;  // oracle decision digest
};

// Paper defaults: 9 own entries, a 100-entry third-party pool and the
// default MiniRocket size (~10k features per channel).
constexpr std::size_t kOwnEntries = 9;
constexpr std::size_t kPoolEntries = 100;

core::Observation to_observation(sim::Trial&& t) {
  return {std::move(t.entry), std::move(t.trace)};
}

std::vector<Subject> make_subjects(const sim::Population& population,
                                   const std::vector<Kind>& kinds,
                                   util::Rng& rng) {
  const auto& pins = keystroke::paper_pins();
  std::vector<Subject> out(kinds.size());
  sim::TrialOptions one;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    Subject& s = out[i];
    s.profile = &population.users.at(i);
    s.typed = pins[i % pins.size()];
    s.kind = kinds[i];
    util::Rng er = rng.fork("own" + std::to_string(i));
    for (sim::Trial& t :
         sim::make_trials(*s.profile, s.typed, kOwnEntries, one, er)) {
      s.own.push_back(to_observation(std::move(t)));
    }
  }
  return out;
}

std::vector<core::Observation> make_pool(const sim::Population& population,
                                         util::Rng& rng) {
  std::vector<core::Observation> pool;
  util::Rng pr = rng.fork("pool");
  for (sim::Trial& t :
       sim::make_third_party_pool(population, kPoolEntries, {}, pr)) {
    pool.push_back(to_observation(std::move(t)));
  }
  return pool;
}

sim::Trial make_candidate(TrialType type, const Subject& s,
                          const sim::Population& population, util::Rng& rng) {
  sim::TrialOptions opts;
  const auto& attackers = population.attackers;
  const ppg::UserProfile& attacker =
      attackers[rng.uniform_int(static_cast<std::uint32_t>(attackers.size()))];
  switch (type) {
    case TrialType::kGenuineOne:
      return sim::make_trial(*s.profile, s.typed, opts, rng);
    case TrialType::kGenuineThree:
      opts.input_case = keystroke::InputCase::kTwoHandedThree;
      return sim::make_trial(*s.profile, s.typed, opts, rng);
    case TrialType::kGenuineTwo:
      opts.input_case = keystroke::InputCase::kTwoHandedTwo;
      return sim::make_trial(*s.profile, s.typed, opts, rng);
    case TrialType::kEmulating:
      return sim::make_emulating_attack(attacker, *s.profile, s.typed, opts,
                                        {}, rng);
    case TrialType::kRandom:
      return sim::make_random_attack(attacker, opts, rng);
  }
  throw std::logic_error("unknown trial type");
}

// The case a trial type must land in to count toward its quota; the
// one-handed types land in the case the user's kind selects.
bool lands_in_quota(TrialType type, Kind kind, CaseKey key) {
  const CaseKey one = kind == Kind::kBoost   ? CaseKey::kBoost
                      : kind == Kind::kNoPin ? CaseKey::kNoPin
                                             : CaseKey::kOneHanded;
  switch (type) {
    case TrialType::kGenuineOne:
    case TrialType::kEmulating: return key == one;
    case TrialType::kGenuineThree: return key == CaseKey::kTwoHanded3;
    case TrialType::kGenuineTwo: return key == CaseKey::kTwoHanded2;
    case TrialType::kRandom:
      return kind == Kind::kNoPin ? key == one : key == CaseKey::kWrongPin;
  }
  return false;
}

// Genuine/attack outcome counts.  Every drawn candidate counts, also one
// the case quotas below redraw (a genuine attempt rejected before any
// model, an attack detected as another case), so frr and far are rates
// over everything drawn, not over what reached a model.
struct Accuracy {
  std::uint64_t genuine = 0, genuine_rejected = 0;
  std::uint64_t attacks = 0, attacks_accepted = 0;
  void add(bool genuine_attempt, bool accepted) {
    if (genuine_attempt) {
      ++genuine;
      genuine_rejected += accepted ? 0 : 1;
    } else {
      ++attacks;
      attacks_accepted += accepted ? 1 : 0;
    }
  }
};

// Draws candidates of `type` until `count` land in the type's case (so
// the case mix is fixed exactly, whatever the seed).  The decision of
// `user` on each kept attempt is its oracle checksum; every candidate's
// decision is tallied in `tally`.
void add_attempts(std::vector<Attempt>& out, TrialType type, std::size_t count,
                  const Subject& s, std::size_t user_index,
                  const core::EnrolledUser& user,
                  const sim::Population& population, util::Rng& rng,
                  Accuracy& tally) {
  std::size_t kept = 0;
  for (std::size_t tries = 0; kept < count; ++tries) {
    if (tries > 60 * count + 60) {
      throw std::runtime_error("input generation: case quota unreachable");
    }
    sim::Trial trial = make_candidate(type, s, population, rng);
    Attempt a;
    a.obs = to_observation(std::move(trial));
    const core::AuthResult r = core::authenticate(user, a.obs);
    tally.add(is_genuine(type), r.accepted);
    a.key = case_of(r);
    if (!lands_in_quota(type, s.kind, a.key)) continue;
    a.user = user_index;
    a.genuine = is_genuine(type);
    a.accepted = r.accepted;
    a.checksum = service::decision_checksum(r);
    out.push_back(std::move(a));
    ++kept;
  }
}

// Whether a candidate of `type` shows the detected case the type is meant
// to produce, judged before any model is involved.
bool detected_as_intended(TrialType type, const Subject& s,
                          const core::Observation& obs) {
  if (type == TrialType::kRandom && s.kind != Kind::kNoPin) {
    return !(obs.entry.pin == s.typed);
  }
  const core::PreprocessedEntry pre = core::preprocess_entry(obs);
  if (pre.health.usable_count() < pre.health.channels.size()) return false;
  const core::DetectedCase want =
      type == TrialType::kGenuineThree ? core::DetectedCase::kTwoHandedThree
      : type == TrialType::kGenuineTwo ? core::DetectedCase::kTwoHandedTwo
                                       : core::DetectedCase::kOneHanded;
  return pre.detected_case == want;
}

// Per-user quotas of each trial type.
struct Mix {
  std::size_t one = 0, three = 0, two = 0, emulating = 0, random = 0;
};

void add_mix(std::vector<Attempt>& out, const Mix& mix, const Subject& s,
             std::size_t user_index, const core::EnrolledUser& user,
             const sim::Population& population, util::Rng& rng,
             Accuracy& tally) {
  const std::pair<TrialType, std::size_t> quotas[] = {
      {TrialType::kGenuineOne, mix.one},
      {TrialType::kGenuineThree, mix.three},
      {TrialType::kGenuineTwo, mix.two},
      {TrialType::kEmulating, mix.emulating},
      {TrialType::kRandom, mix.random}};
  for (const auto& [type, count] : quotas) {
    add_attempts(out, type, count, s, user_index, user, population, rng,
                 tally);
  }
}

template <typename T>
void shuffle(std::vector<T>& v, util::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.uniform_int(static_cast<std::uint32_t>(i))]);
  }
}

// Digest of generated inputs, so a test can check that a seed fixes them.
std::uint64_t digest_observation(std::uint64_t h, const core::Observation& o) {
  h = service::checksum_mix(h, std::hash<std::string>{}(o.entry.pin.digits()));
  for (const auto& e : o.entry.events) {
    h = service::checksum_mix(h, std::bit_cast<std::uint64_t>(e.recorded_time_s));
  }
  for (const auto& ch : o.trace.channels) {
    for (const double x : ch) {
      h = service::checksum_mix(h, std::bit_cast<std::uint64_t>(x));
    }
  }
  return h;
}

// ---------------------------------------------------------------------------
// Set-up pieces shared by the workloads.

core::EnrollmentConfig enroll_config(Kind kind) {
  core::EnrollmentConfig config;
  config.privacy_boost = kind == Kind::kBoost;
  return config;
}

std::vector<core::ExtractedEntry> extract_pool(
    const std::vector<core::Observation>& pool) {
  const core::EnrollmentConfig config;
  std::vector<core::ExtractedEntry> out;
  out.reserve(pool.size());
  for (const core::Observation& o : pool) {
    out.push_back(core::extract_observation(o, config));
  }
  return out;
}

core::EnrolledUser enroll(const Subject& s,
                          const std::vector<core::ExtractedEntry>& pool,
                          std::uint32_t user_id) {
  core::EnrolledUser user =
      core::enroll_user(s.enrolled_pin(), s.own, pool, enroll_config(s.kind));
  user.user_id = user_id;
  return user;
}

// ---------------------------------------------------------------------------
// Traced-run replays: the run's own inputs pushed through each layer's
// public call, timed here, with obs recording on.

struct LayerSamples {
  std::map<CaseKey, std::vector<double>> auth_us, coverage, units;
  std::vector<double> pin_reject_us, preprocess_us, segmentation_us, full_us,
      segment_us, ridge_us, prepare_us, finish_us;
  std::uint64_t mismatches = 0;
};

void replay_decisions(const std::vector<const core::EnrolledUser*>& users,
                      const std::vector<Attempt>& attempts, int passes,
                      LayerSamples& s) {
  const core::AuthOptions options;
  ml::TransformScratch scratch;
  linalg::Vector features;
  for (int pass = 0; pass < passes; ++pass) {
    for (const Attempt& a : attempts) {
      const core::EnrolledUser& user = *users[a.user];
      // Untimed first call: the attempt's data is in cache for every
      // timed call below, whole or split.
      (void)core::authenticate(user, a.obs, options);
      core::AuthResult whole;
      const double t_auth =
          time_us([&] { whole = core::authenticate(user, a.obs, options); });
      const CaseKey key = case_of(whole);
      const std::uint64_t expected = service::decision_checksum(whole);
      if (expected != a.checksum) ++s.mismatches;

      core::PreparedAuth prepared;
      const double t_prep = time_us([&] {
        prepared = core::prepare_authentication(user, a.obs, options);
      });
      double t_units = 0.0;
      std::vector<double> decisions;
      for (const core::ScoringUnit& unit : prepared.units) {
        const ml::MultiChannelMiniRocket& rocket = unit.model->rocket();
        features.resize(rocket.num_features());
        const double t_tx = time_us(
            [&] { rocket.transform_into(unit.waveform, features, scratch); });
        double raw = 0.0;
        const double t_ridge =
            time_us([&] { raw = unit.model->ridge().decision(features); });
        decisions.push_back(raw - unit.model->threshold());
        const bool full = unit.waveform.front().size() >
                          core::segment_length(100.0);
        (full ? s.full_us : s.segment_us).push_back(t_tx);
        s.ridge_us.push_back(t_ridge);
        t_units += t_tx + t_ridge;
      }
      const std::size_t units = prepared.units.size();
      core::AuthResult split;
      const double t_fin = time_us([&] {
        split = core::finish_authentication(std::move(prepared), decisions);
      });
      if (service::decision_checksum(split) != expected) ++s.mismatches;

      if (key == CaseKey::kWrongPin) {
        s.pin_reject_us.push_back(t_auth);
        continue;
      }
      s.auth_us[key].push_back(t_auth);
      s.units[key].push_back(static_cast<double>(units));
      s.coverage[key].push_back((t_prep + t_units + t_fin) / t_auth);
      s.prepare_us.push_back(t_prep);
      s.finish_us.push_back(t_fin);

      core::PreprocessedEntry pre;
      s.preprocess_us.push_back(time_us(
          [&] { pre = core::preprocess_entry(a.obs, options.preprocess); }));
      s.segmentation_us.push_back(time_us([&] {
        std::vector<std::vector<core::Series>> segments;
        std::size_t first = pre.calibrated_indices.front();
        bool seen = false;
        for (std::size_t i = 0; i < pre.keystroke_present.size(); ++i) {
          if (!pre.keystroke_present[i]) continue;
          if (!seen) first = pre.calibrated_indices[i];
          seen = true;
          if (key != CaseKey::kOneHanded) {
            segments.push_back(core::extract_segment(
                pre.filtered, pre.calibrated_indices[i], pre.rate_hz));
          }
        }
        if (key == CaseKey::kOneHanded) {
          segments.push_back(
              core::extract_full_waveform(pre.filtered, first, pre.rate_hz));
        } else if (key == CaseKey::kBoost) {
          segments.push_back(core::fuse_segments(segments));
        }
      }));
    }
  }
}

// The full-model family of one enrollment, replayed call by call.
struct EnrollReplay {
  std::vector<double> extract_us, fit_s, transform_batch_s, ridge_fit_s;
};

EnrollReplay replay_enrollment(const std::vector<core::Observation>& own,
                               const std::vector<core::ExtractedEntry>& pool,
                               int reps) {
  const core::EnrollmentConfig config;
  EnrollReplay out;
  std::vector<std::vector<core::Series>> all;
  for (const core::Observation& o : own) {
    core::ExtractedEntry e;
    out.extract_us.push_back(
        time_us([&] { e = core::extract_observation(o, config); }));
    all.push_back(std::move(e.full));
  }
  std::vector<double> labels(all.size(), 1.0);
  for (const core::ExtractedEntry& e : pool) all.push_back(e.full);
  labels.resize(all.size(), -1.0);
  for (int r = 0; r < reps; ++r) {
    ml::MultiChannelMiniRocket rocket(config.rocket);
    util::Rng rng(config.seed);
    out.fit_s.push_back(time_us([&] { rocket.fit(all, rng); }) / 1e6);
    linalg::Matrix x;
    out.transform_batch_s.push_back(
        time_us([&] { x = rocket.transform(all); }) / 1e6);
    linalg::RidgeClassifier ridge;
    out.ridge_fit_s.push_back(
        time_us([&] { ridge.fit(x, labels, config.ridge); }) / 1e6);
  }
  return out;
}

// Store layer: one generation of `registry` published, reopened and
// verified.
struct IoSamples {
  std::vector<double> publish_s, open_us, materialize_us;
  double store_mib = 0.0;
};

void probe_store(const core::UserRegistry& registry, TempFiles& temp, int reps,
                 IoSamples& s) {
  for (int r = 0; r < reps; ++r) {
    const std::string path = temp.make("io-probe");
    double open_us = 0.0;
    const double publish_us = time_us([&] {
      io::save_user_registry_binary_file(registry, path);
      std::optional<io::MappedRegistry> store;
      open_us =
          time_us([&] { store.emplace(io::MappedRegistry::open(path)); });
      store->verify_all();
    });
    s.publish_s.push_back(publish_us / 1e6);
    s.open_us.push_back(open_us);
    s.store_mib = file_mib(path);
    TempFiles::remove(path);
  }
}

// Service layer, traced runs only: an open loop of Poisson arrivals at a
// fixed absolute rate from this thread into an AuthService with two
// workers, 4 shards and an LRU of 8 users per shard, over a P2MDL001
// store of 128 names aliasing the workload's enrolled users.  Names
// follow zipf(1.1), so the LRU misses, requests queue behind the misses
// and batches form.  Every served decision must equal its attempt's
// oracle digest.
constexpr std::size_t kServiceNames = 128;
constexpr double kServiceRate = 100.0;  // arrivals per second
constexpr double kServiceSeconds = 10.0;
constexpr double kServiceZipf = 1.1;

std::string name_of(std::size_t i) { return "user" + std::to_string(i); }

service::ServiceOptions service_options(std::size_t workers) {
  service::ServiceOptions o;
  o.shards = 4;
  o.lru_capacity = 8;
  o.queue_capacity = 1024;
  o.workers = workers;
  o.max_batch = 8;
  o.batch_threads = 1;
  return o;
}

struct ServiceSamples {
  std::vector<double> queue_us, compute_us, batch;
  service::ServiceStats stats;  // the open loop's own counts
  perfbench::OpenLoopLedger ledger;
  std::uint64_t requests = 0, mismatches = 0;
};

// `attempts[k].user` indexes `models`; every model needs an attempt.
void service_open_loop(const std::vector<const core::EnrolledUser*>& models,
                       const std::vector<Attempt>& attempts, std::uint64_t seed,
                       std::size_t budget, TempFiles& temp, ServiceSamples& s,
                       IoSamples& io) {
  const std::size_t m = models.size();
  std::vector<std::vector<std::size_t>> by_model(m);
  for (std::size_t k = 0; k < attempts.size(); ++k) {
    by_model.at(attempts[k].user).push_back(k);
  }
  for (const auto& pool : by_model) {
    if (pool.empty()) throw std::logic_error("service loop: model without attempts");
  }
  const std::string path = temp.make("service");
  {
    core::UserRegistry registry;
    for (std::size_t i = 0; i < kServiceNames; ++i) {
      registry.add(name_of(i), *models[i % m]);
    }
    io::save_user_registry_binary_file(registry, path);
  }
  // Generator plus workers within the thread budget.
  const std::size_t workers = std::clamp<std::size_t>(budget - 1, 1, 2);
  const service::ServiceOptions options = service_options(workers);
  service::AuthService svc(std::make_shared<service::MappedRegistrySource>(
                               std::vector<std::string>{path}),
                           options);

  // The arrival schedule and name sequence, fixed before the loop.
  util::Rng rng(seed, 0x5e7f1ce);
  const perfbench::ZipfSampler zipf(kServiceNames, kServiceZipf);
  const std::size_t count =
      static_cast<std::size_t>(std::llround(kServiceRate * kServiceSeconds));
  const std::vector<double> due_s = perfbench::poisson_due_times(
      count, kServiceRate, [&] { return rng.uniform(); });
  std::vector<std::size_t> req_name(count), req_attempt(count);
  for (std::size_t k = 0; k < count; ++k) {
    req_name[k] = zipf.draw(rng.uniform());
    const auto& pool = by_model[req_name[k] % m];
    req_attempt[k] =
        pool[rng.uniform_int(static_cast<std::uint32_t>(pool.size()))];
  }
  const auto check = [&](const service::AuthResponse& r, std::size_t k) {
    s.mismatches += r.status == service::RequestStatus::kOk &&
                    service::decision_checksum(r.result) != attempts[k].checksum;
  };

  // Warm-up: every attempt once under its model's own name (the hottest
  // names), eight in flight at a time.
  {
    std::vector<std::future<service::AuthResponse>> warm;
    for (std::size_t k = 0; k < attempts.size(); ++k) {
      service::AuthRequest req;
      req.request_id = k;
      req.user = name_of(attempts[k].user);
      req.observation = attempts[k].obs;
      warm.push_back(svc.submit(std::move(req)));
      if (warm.size() == 8 || k + 1 == attempts.size()) {
        for (auto& f : warm) {
          const service::AuthResponse r = f.get();
          s.mismatches += r.status != service::RequestStatus::kOk;
          check(r, r.request_id);
        }
        warm.clear();
      }
    }
  }
  const service::ServiceStats warm_stats = svc.stats();

  // The generator sends on schedule; the service reports each request's
  // queue and compute time, so a request is done at send + queue +
  // compute.  Latency runs from the due time.
  std::vector<std::future<service::AuthResponse>> futures;
  futures.reserve(count);
  std::vector<double> send_us(count);
  const Clock::time_point t0 = Clock::now();
  for (std::size_t k = 0; k < count; ++k) {
    service::AuthRequest req;
    req.request_id = k;
    req.user = name_of(req_name[k]);
    req.observation = attempts[req_attempt[k]].obs;
    // Sleep to 2 ms short of the due time, then spin: on a busy host a
    // sleeping thread wakes milliseconds late, and that lateness would be
    // charged to the request.
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(due_s[k]));
    std::this_thread::sleep_until(due - std::chrono::milliseconds(2));
    while (Clock::now() < due) {
    }
    send_us[k] = us_between(t0, Clock::now());
    s.ledger.sent(due_s[k] * 1e6, send_us[k]);
    futures.push_back(svc.submit(std::move(req)));
  }
  for (std::size_t k = 0; k < count; ++k) {
    const service::AuthResponse r = futures[k].get();
    if (r.status != service::RequestStatus::kOk) {
      s.ledger.refuse(send_us[k]);
      continue;
    }
    s.ledger.completed(due_s[k] * 1e6, send_us[k] + r.queue_us + r.service_us);
    check(r, req_attempt[k]);
    s.queue_us.push_back(r.queue_us);
    s.compute_us.push_back(r.service_us);
    s.batch.push_back(static_cast<double>(r.batch_size));
  }
  s.stats = svc.stats();
  svc.stop();
  s.requests = count;
  s.stats.lru_hits -= warm_stats.lru_hits;
  s.stats.lru_misses -= warm_stats.lru_misses;
  s.stats.evictions -= warm_stats.evictions;

  // materialize on the loop's miss sequence: the sharded LRU replayed
  // over the request order from the warm-up's state, the first 200
  // misses materialized.
  const io::MappedRegistry store = io::MappedRegistry::open(path);
  std::vector<std::vector<std::size_t>> lru(options.shards);
  const auto touch = [&](std::size_t name) {
    auto& shard =
        lru[service::AuthService::route_hash(name_of(name)) % options.shards];
    const auto it = std::find(shard.begin(), shard.end(), name);
    const bool hit = it != shard.end();
    if (hit) shard.erase(it);
    shard.insert(shard.begin(), name);
    if (shard.size() > options.lru_capacity) shard.pop_back();
    return hit;
  };
  for (const Attempt& a : attempts) touch(a.user);
  io.materialize_us.clear();
  for (std::size_t k = 0; k < count && io.materialize_us.size() < 200; ++k) {
    if (touch(req_name[k])) continue;
    io.materialize_us.push_back(
        time_us([&] { (void)store.materialize(name_of(req_name[k])); }));
  }
  TempFiles::remove(path);
}

// ---------------------------------------------------------------------------
// Per-layer metric emission (the --trace 1 set; every workload reports
// every name).

struct Traced {
  LayerSamples layers;
  EnrollReplay enroll;
  IoSamples io;
  ServiceSamples svc;
  std::map<CaseKey, std::vector<double>> case_p50_source;  // per-case times
  std::vector<double> tail_source;     // latencies, obs off
  std::vector<double> obs_on, obs_off; // latencies by obs state
  std::vector<double> lateness_us, host_ref_us;
  Accuracy accuracy;
  std::uint64_t attempted = 0, failed = 0;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void emit_per_layer(const Traced& t, ResultWriter& w) {
  const LayerSamples& l = t.layers;
  w.metric("keystroke.pin_reject_us", median(l.pin_reject_us), "us");
  w.metric("core.preprocess_us", median(l.preprocess_us), "us");
  w.metric("core.segmentation_us", median(l.segmentation_us), "us");
  w.metric("ml.minirocket.full_us", median(l.full_us), "us");
  w.metric("ml.minirocket.segment_us", median(l.segment_us), "us");
  w.metric("linalg.ridge.decision_us", median(l.ridge_us), "us");
  w.metric("core.authenticator.prepare_us", median(l.prepare_us), "us");
  w.metric("core.authenticator.finish_us", median(l.finish_us), "us");
  for (const CaseKey k : kModelCases) {
    const std::string name = case_name(k);
    const auto pick = [&](const std::map<CaseKey, std::vector<double>>& m) {
      const auto it = m.find(k);
      return it == m.end() ? std::vector<double>{} : it->second;
    };
    w.metric("core.authenticator.units_per_decision." + name,
             mean(pick(l.units)), "count");
    w.metric("bench.coverage." + name, median(pick(l.coverage)), "ratio");
    w.metric(name + "_p50_us", median(pick(t.case_p50_source)), "us");
  }
  std::vector<double> tail = t.tail_source;
  w.metric("bench.latency_p50_us", percentile(tail, 0.5), "us");
  const double q = perfbench::tail_quantile(tail.size());
  w.metric("bench.latency_tail_us", percentile(tail, q), "us");
  w.metric("bench.latency_tail_q", q, "quantile");
  w.metric("bench.samples", static_cast<double>(tail.size()), "count");

  const ServiceSamples& s = t.svc;
  std::vector<double> queue = s.queue_us;
  w.metric("service.queue_us_p50", percentile(queue, 0.5), "us");
  w.metric("service.queue_us_p99", percentile(queue, 0.99), "us");
  w.metric("service.compute_us_p50", median(s.compute_us), "us");
  w.metric("service.batch_size_mean", mean(s.batch), "count");
  w.metric("service.batch_size_max",
           s.batch.empty() ? 0.0
                           : *std::max_element(s.batch.begin(), s.batch.end()),
           "count");
  const double hits = static_cast<double>(s.stats.lru_hits);
  const double misses = static_cast<double>(s.stats.lru_misses);
  w.metric("service.lru_hit_ratio", ratio(hits, hits + misses), "ratio");
  w.metric("service.lru_hits", hits, "count");
  w.metric("service.lru_misses", misses, "count");
  w.metric("service.evictions", static_cast<double>(s.stats.evictions),
           "count");
  w.metric("bench.service_zipf.latency_p50_us", s.ledger.latency_percentile(0.5),
           "us");
  w.metric("bench.service_zipf.latency_p99_us",
           s.ledger.latency_percentile(0.99), "us");
  w.metric("bench.service_zipf.throughput_per_s", s.ledger.throughput_per_s(),
           "1/s");
  w.metric("bench.service_zipf.lateness_us_p99",
           s.ledger.lateness_percentile(0.99), "us");

  w.metric("io.materialize_us", median(t.io.materialize_us), "us");
  w.metric("io.open_us", median(t.io.open_us), "us");
  w.metric("io.publish_s", median(t.io.publish_s), "s");
  w.metric("io.store_mib", t.io.store_mib, "MiB");

  w.metric("core.enrollment.extract_us", median(t.enroll.extract_us), "us");
  w.metric("ml.minirocket.fit_s", median(t.enroll.fit_s), "s");
  w.metric("ml.minirocket.transform_batch_s",
           median(t.enroll.transform_batch_s), "s");
  w.metric("linalg.ridge.fit_s", median(t.enroll.ridge_fit_s), "s");

  std::vector<double> late = t.lateness_us;
  w.metric("bench.lateness_us_p99", percentile(late, 0.99), "us");
  w.metric("bench.host_ref_us", median(t.host_ref_us), "us");
  w.metric("bench.trace_overhead", ratio(median(t.obs_on), median(t.obs_off)),
           "ratio");

  const Accuracy& a = t.accuracy;
  w.metric("frr", ratio(static_cast<double>(a.genuine_rejected),
                        static_cast<double>(a.genuine)), "ratio");
  w.metric("far", ratio(static_cast<double>(a.attacks_accepted),
                        static_cast<double>(a.attacks)), "ratio");
  w.metric("frr.genuine", static_cast<double>(a.genuine), "count");
  w.metric("far.attacks", static_cast<double>(a.attacks), "count");
  // The timed phase's operations and the service loop's requests.
  w.metric("error_ratio",
           ratio(static_cast<double>(t.failed + s.ledger.refused),
                 static_cast<double>(t.attempted + s.requests)),
           "ratio");
}

// The gated latency is the interquartile mean of the operation times
// (see perfbench::interquartile_mean for why not the median or the
// mean); the median is recorded in the run info and per layer.
void emit_end_to_end(ResultWriter& w, const std::vector<double>& latency_us,
                     double throughput, const std::vector<double>& setup_s) {
  w.metric("latency_iqm_us", perfbench::interquartile_mean(latency_us), "us");
  w.metric("throughput_per_s", throughput, "1/s");
  w.metric("setup_s", median(setup_s), "s");
  w.metric("rss_mib", peak_rss_mib(), "MiB");
  std::vector<double> sorted = latency_us;
  w.info("latency_p50_us", percentile(sorted, 0.5));
}

void info_accuracy(ResultWriter& w, const Accuracy& a) {
  w.info("genuine_attempts", static_cast<double>(a.genuine));
  w.info("genuine_rejected", static_cast<double>(a.genuine_rejected));
  w.info("attack_attempts", static_cast<double>(a.attacks));
  w.info("attacks_accepted", static_cast<double>(a.attacks_accepted));
}

struct RunStatus {
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::string why;
  void mismatch(const std::string& what, std::uint64_t n) {
    if (n == 0) return;
    correct = false;
    why += what + "=" + std::to_string(n) + " ";
  }
};

// Obs recording alternates in half-second blocks of a traced run, so the
// same run yields traced and untraced latencies for trace_overhead.
bool obs_block_on(double elapsed_us) {
  return static_cast<long long>(elapsed_us / 500000.0) % 2 == 1;
}

// ---------------------------------------------------------------------------
// device_mixed: one authenticate at a time on one rotating thread.

// Attempts per user kind, 300 in all: 90% one-handed (genuine and
// emulating attacks on the standard user) and 2% each of wrong PIN,
// boost, two-handed-3, two-handed-2 and no-PIN.  Sorted by decision cost
// the other cases take the lowest 10%, so p50 sits near the middle of
// the one-handed block (its 44th percentile) and p99 inside it, both
// 40 or more percentile points from any case boundary.  Latency
// quantiles taken near a boundary jump between cases as host speed
// drifts; the block middle does not.
const Mix kDeviceStandard{200, 6, 6, 70, 6};
const Mix kDeviceBoost{4, 0, 0, 2, 0};
const Mix kDeviceNoPin{4, 0, 0, 2, 0};

void run_device_mixed(const Options& opt, std::size_t budget, TempFiles& temp,
                      ResultWriter& w, RunStatus& st) {
  util::Rng rng(opt.seed, 0xde71ce);
  sim::PopulationConfig pc;
  pc.num_users = 3;
  pc.seed = opt.seed;
  const sim::Population population = sim::make_population(pc);
  const std::vector<Subject> subjects = make_subjects(
      population, {Kind::kStandard, Kind::kBoost, Kind::kNoPin}, rng);
  const std::vector<core::Observation> pool_obs = make_pool(population, rng);

  // Set-up, three times: pool extraction + three enrollments.
  std::vector<double> setup_s;
  std::vector<core::ExtractedEntry> pool;
  std::vector<core::EnrolledUser> users;
  for (int rep = 0; rep < 3; ++rep) {
    users.clear();
    setup_s.push_back(time_us([&] {
      pool = extract_pool(pool_obs);
      for (std::size_t i = 0; i < subjects.size(); ++i) {
        users.push_back(enroll(subjects[i], pool,
                               static_cast<std::uint32_t>(100 + i)));
      }
    }) / 1e6);
  }
  std::vector<const core::EnrolledUser*> user_ptrs;
  for (const auto& u : users) user_ptrs.push_back(&u);

  Traced t;
  std::vector<Attempt> attempts;
  util::Rng ar = rng.fork("attempts");
  add_mix(attempts, kDeviceStandard, subjects[0], 0, users[0], population, ar,
          t.accuracy);
  add_mix(attempts, kDeviceBoost, subjects[1], 1, users[1], population, ar,
          t.accuracy);
  add_mix(attempts, kDeviceNoPin, subjects[2], 2, users[2], population, ar,
          t.accuracy);
  shuffle(attempts, ar);
  std::uint64_t input_digest = service::kChecksumSeed;
  for (const Attempt& a : attempts) {
    input_digest = digest_observation(input_digest, a.obs);
  }

  const std::vector<int> cpus = allowed_cpus();
  CpuRotator rotator(pthread_self(), cpus, std::chrono::milliseconds(250));
  const core::AuthOptions auth;
  // Warm-up pass: fills caches and scratch, and fixes the pass digest.
  std::uint64_t warm_digest = service::kChecksumSeed;
  std::uint64_t mismatches = 0;
  for (const Attempt& a : attempts) {
    const std::uint64_t c = service::decision_checksum(
        core::authenticate(*user_ptrs[a.user], a.obs, auth));
    mismatches += c != a.checksum;
    warm_digest = service::checksum_mix(warm_digest, c);
  }

  std::vector<double> latency;
  latency.reserve(1 << 16);
  std::uint64_t pass_digest = service::kChecksumSeed, digest_mismatch = 0;
  // Decisions per second of each pass over the attempts.  Every pass has
  // the same mix, so their median is steady where a rate over the whole
  // phase follows every stall.
  std::vector<double> pass_rate;
  const std::size_t n = attempts.size();
  const double budget_us = opt.seconds * 1e6;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point pass_t0 = t0;
  std::size_t i = 0;
  for (;; ++i) {
    const Clock::time_point now = Clock::now();
    const double elapsed = us_between(t0, now);
    // Whole passes only, at least one.
    if (i > 0 && i % n == 0) {
      pass_rate.push_back(static_cast<double>(n) /
                          (us_between(pass_t0, now) / 1e6));
      pass_t0 = now;
      if (elapsed >= budget_us) break;
    }
    const bool on = opt.trace && obs_block_on(elapsed);
    if (opt.trace) obs::set_enabled(on);
    const Attempt& a = attempts[i % n];
    core::AuthResult r;
    const double dt =
        time_us([&] { r = core::authenticate(*user_ptrs[a.user], a.obs, auth); });
    const std::uint64_t c = service::decision_checksum(r);
    mismatches += c != a.checksum;
    pass_digest = service::checksum_mix(pass_digest, c);
    if (i % n == n - 1) {
      digest_mismatch += pass_digest != warm_digest;
      pass_digest = service::kChecksumSeed;
    }
    if (!opt.trace) {
      latency.push_back(dt);
      continue;
    }
    (on ? t.obs_on : t.obs_off).push_back(dt);
    if (!on) {
      t.tail_source.push_back(dt);
      if (a.key != CaseKey::kWrongPin) t.case_p50_source[a.key].push_back(dt);
    }
    if (i % 64 == 63) t.host_ref_us.push_back(host_ref_us());
  }
  rotator.stop();
  st.attempted = i;
  st.mismatch("decision_mismatches", mismatches);
  st.mismatch("pass_digest_mismatches", digest_mismatch);

  w.info("input_digest", std::to_string(input_digest));
  w.info("distinct_attempts", static_cast<double>(n));
  w.info("passes", static_cast<double>(pass_rate.size()));
  info_accuracy(w, t.accuracy);
  if (!opt.trace) {
    emit_end_to_end(w, latency, median(pass_rate), setup_s);
    return;
  }

  t.lateness_us = rotator.lateness_us();
  t.attempted = st.attempted;
  {
    CpuRotator replay_rotator(pthread_self(), cpus,
                              std::chrono::milliseconds(250));
    replay_decisions(user_ptrs, attempts, 2, t.layers);
    // The rare cases have 6 attempts each: ten more passes over them for
    // a steady coverage median, without changing the mix of the pooled
    // per-layer medians.
    std::vector<Attempt> rare;
    for (const Attempt& a : attempts) {
      if (a.key != CaseKey::kOneHanded && a.key != CaseKey::kWrongPin) {
        rare.push_back(a);
      }
    }
    LayerSamples extra;
    replay_decisions(user_ptrs, rare, 10, extra);
    for (auto& [key, v] : extra.coverage) {
      t.layers.coverage[key].insert(t.layers.coverage[key].end(), v.begin(),
                                    v.end());
    }
    t.layers.mismatches += extra.mismatches;
  }
  st.mismatch("replay_mismatches", t.layers.mismatches);
  t.enroll = replay_enrollment(subjects[0].own, pool, 3);

  // Layers the timed phase never reaches, driven with this run's users
  // and attempts.
  core::UserRegistry registry;
  for (std::size_t u = 0; u < users.size(); ++u) {
    registry.add(name_of(u), users[u]);
  }
  probe_store(registry, temp, 3, t.io);
  obs::set_enabled(true);
  service_open_loop(user_ptrs, attempts, opt.seed, budget, temp, t.svc, t.io);
  st.mismatch("service_loop_mismatches", t.svc.mismatches);
  emit_per_layer(t, w);
}

// ---------------------------------------------------------------------------
// enroll_publish: enroll users one at a time on one rotating thread,
// publish each round as a new store generation, score from it.

// A boost user trains one model more and enrolls ~20% slower than the
// others, which cost about the same; one boost user in eight keeps the
// enrollment p50 inside the standard/no-PIN block, not on its edge.
const std::vector<Kind> kEnrollKinds = {Kind::kStandard, Kind::kStandard,
                                        Kind::kNoPin,    Kind::kStandard,
                                        Kind::kStandard, Kind::kBoost,
                                        Kind::kStandard, Kind::kNoPin};
constexpr std::size_t kUsersPerRound = 4;

// One store generation: a round's enrollments, published and reopened.
struct Generation {
  std::vector<core::EnrolledUser> users;
  std::vector<std::size_t> ids;  // subject index of each user
  std::string path;
  std::optional<io::MappedRegistry> store;
};

void run_enroll_publish(const Options& opt, std::size_t budget,
                        TempFiles& temp, ResultWriter& w, RunStatus& st) {
  util::Rng rng(opt.seed, 0xe1201);
  sim::PopulationConfig pc;
  pc.num_users = kEnrollKinds.size();
  pc.seed = opt.seed;
  const sim::Population population = sim::make_population(pc);
  const std::vector<Subject> subjects =
      make_subjects(population, kEnrollKinds, rng);
  const std::size_t n = subjects.size();
  const std::vector<core::Observation> pool_obs = make_pool(population, rng);
  // Per user: 4 genuine (2 one-handed, one of each two-handed case) and
  // 4 attacks.  No user is enrolled yet, so the case quota is checked on
  // what preprocessing alone decides: the detected keystroke count, every
  // channel healthy, and a wrong PIN for random attacks on PIN users.
  // That puts every case in every run; decisions and checksums come from
  // the first scoring round.  Redrawn candidates are kept in `extras`
  // and scored once after the timed phase, for the accuracy tally only.
  std::vector<std::vector<Attempt>> attempts(n), extras(n);
  std::uint64_t input_digest = service::kChecksumSeed;
  util::Rng ar = rng.fork("attempts");
  for (std::size_t u = 0; u < n; ++u) {
    for (const TrialType type :
         {TrialType::kGenuineOne, TrialType::kGenuineOne,
          TrialType::kGenuineThree, TrialType::kGenuineTwo,
          TrialType::kEmulating, TrialType::kEmulating, TrialType::kRandom,
          TrialType::kRandom}) {
      Attempt a;
      a.genuine = is_genuine(type);
      for (std::size_t tries = 0;; ++tries) {
        if (tries > 60) {
          throw std::runtime_error("input generation: case quota unreachable");
        }
        a.obs = to_observation(
            make_candidate(type, subjects[u], population, ar));
        if (detected_as_intended(type, subjects[u], a.obs)) break;
        extras[u].push_back(a);
      }
      input_digest = digest_observation(input_digest, a.obs);
      attempts[u].push_back(std::move(a));
    }
  }

  const std::vector<int> cpus = allowed_cpus();
  CpuRotator rotator(pthread_self(), cpus, std::chrono::milliseconds(250));
  Traced t;
  std::vector<double> latency;
  std::vector<bool> scored_once(n, false);
  std::uint64_t mismatches = 0;
  std::vector<std::optional<core::EnrolledUser>> latest(n);
  std::vector<core::ExtractedEntry> pool;

  // Enrolls round `round`'s users; the timed phase records each time.
  const auto enroll_round = [&](std::size_t round, bool timed) {
    auto g = std::make_unique<Generation>();
    const bool on = opt.trace && round % 2 == 1;
    for (std::size_t j = 0; j < kUsersPerRound; ++j) {
      const std::size_t u = (round * kUsersPerRound + j) % n;
      core::EnrolledUser user;
      const double dt = time_us([&] {
        user = enroll(subjects[u], pool, static_cast<std::uint32_t>(u));
      });
      if (timed) {
        ++st.attempted;
        latency.push_back(dt);
        if (opt.trace) {
          (on ? t.obs_on : t.obs_off).push_back(dt);
          if (!on) t.tail_source.push_back(dt);
          t.host_ref_us.push_back(host_ref_us());
        }
      }
      g->users.push_back(std::move(user));
      g->ids.push_back(u);
    }
    return g;
  };
  // Publishes a generation: save, open, verify_all.
  const auto publish = [&](Generation& g) {
    core::UserRegistry registry;
    for (std::size_t j = 0; j < g.users.size(); ++j) {
      registry.add(name_of(g.ids[j]), g.users[j]);
    }
    g.path = temp.make("enroll_publish");
    double open_us = 0.0;
    const double publish_us = time_us([&] {
      io::save_user_registry_binary_file(registry, g.path);
      open_us = time_us(
          [&] { g.store.emplace(io::MappedRegistry::open(g.path)); });
      g.store->verify_all();
    });
    t.io.publish_s.push_back(publish_us / 1e6);
    t.io.open_us.push_back(open_us);
    t.io.store_mib = file_mib(g.path);
  };
  const auto retire = [](std::unique_ptr<Generation>& g) {
    if (!g) return;
    g->store.reset();
    TempFiles::remove(g->path);
    g.reset();
  };
  // Serves a generation's users from its store: each decision must equal
  // the in-memory user's, and a re-enrolled user's first decisions.
  const auto score = [&](Generation& g) {
    for (std::size_t j = 0; j < g.users.size(); ++j) {
      const std::size_t u = g.ids[j];
      const core::EnrolledUser served = g.store->materialize(name_of(u));
      for (Attempt& a : attempts[u]) {
        const core::AuthResult mem = core::authenticate(g.users[j], a.obs);
        const std::uint64_t c = service::decision_checksum(mem);
        mismatches +=
            service::decision_checksum(core::authenticate(served, a.obs)) != c;
        if (scored_once[u]) {
          mismatches += c != a.checksum;
        } else {
          a.checksum = c;
          a.key = case_of(mem);
          t.accuracy.add(a.genuine, mem.accepted);
        }
      }
      scored_once[u] = true;
      latest[u] = std::move(g.users[j]);
    }
  };

  // Set-up, five times, under the CPU rotation like the timed phase:
  // the shared third-party pool extraction, then the first round of
  // enrollments published as the first store generation.
  std::vector<double> setup_s;
  std::unique_ptr<Generation> live;
  for (int rep = 0; rep < 5; ++rep) {
    retire(live);
    setup_s.push_back(time_us([&] {
      pool = extract_pool(pool_obs);
      live = enroll_round(0, false);
      publish(*live);
    }) / 1e6);
  }
  score(*live);

  // Timed phase: further rounds, each published as a new generation that
  // replaces the live one.  At least one pass over the users, so every
  // case has an enrolled user.
  const double budget_us = opt.seconds * 1e6;
  const Clock::time_point t0 = Clock::now();
  std::size_t round = 1;
  for (; round * kUsersPerRound < n || us_between(t0, Clock::now()) < budget_us;
       ++round) {
    if (opt.trace) obs::set_enabled(round % 2 == 1);
    std::unique_ptr<Generation> next = enroll_round(round, true);
    publish(*next);
    retire(live);
    live = std::move(next);
    score(*live);
  }
  const double elapsed_s = us_between(t0, Clock::now()) / 1e6;
  rotator.stop();
  retire(live);
  st.mismatch("store_vs_memory_mismatches", mismatches);
  for (std::size_t u = 0; u < n; ++u) {
    for (const Attempt& a : extras[u]) {
      t.accuracy.add(a.genuine, core::authenticate(*latest[u], a.obs).accepted);
    }
  }

  w.info("input_digest", std::to_string(input_digest));
  w.info("rounds", static_cast<double>(round - 1));
  w.info("users_enrolled", static_cast<double>(st.attempted));
  info_accuracy(w, t.accuracy);
  if (!opt.trace) {
    emit_end_to_end(w, latency, static_cast<double>(st.attempted) / elapsed_s,
                    setup_s);
    return;
  }

  t.lateness_us = rotator.lateness_us();
  t.attempted = st.attempted;
  // Decision layers and the service loop on every user's latest
  // enrollment.
  std::vector<const core::EnrolledUser*> ptrs;
  std::vector<Attempt> replayed;
  for (std::size_t u = 0; u < n; ++u) {
    for (const Attempt& a : attempts[u]) {
      replayed.push_back(a);
      replayed.back().user = ptrs.size();
    }
    ptrs.push_back(&*latest[u]);
  }
  {
    CpuRotator replay_rotator(pthread_self(), cpus,
                              std::chrono::milliseconds(250));
    replay_decisions(ptrs, replayed, 2, t.layers);
  }
  st.mismatch("replay_mismatches", t.layers.mismatches);
  for (const CaseKey k : kModelCases) t.case_p50_source[k] = t.layers.auth_us[k];
  obs::set_enabled(true);
  service_open_loop(ptrs, replayed, opt.seed, budget, temp, t.svc, t.io);
  st.mismatch("service_loop_mismatches", t.svc.mismatches);
  t.enroll = replay_enrollment(subjects[0].own, pool, 3);
  emit_per_layer(t, w);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse_options(argc, argv);
    // Thread budget of the whole run, counting the service loop's
    // generator and workers and the shared pool: the allowed CPUs, at
    // most 4.  The pool reads P2AUTH_THREADS on first use, below;
    // enroll_publish times single-threaded enrollment.  The SIMD backend
    // measured is the one the host selects, whatever the caller forces.
    const std::vector<int> cpus = allowed_cpus();
    const std::size_t budget = std::min<std::size_t>(cpus.size(), 4);
    const std::string pool_threads =
        opt.workload == "enroll_publish" ? "1" : std::to_string(budget);
    setenv("P2AUTH_THREADS", pool_threads.c_str(), 1);
    unsetenv("P2AUTH_BACKEND");
    obs::set_enabled(opt.trace);

    ResultWriter w;
    RunStatus st;
    TempFiles temp(opt.tmpdir);
    if (opt.workload == "device_mixed") {
      run_device_mixed(opt, budget, temp, w, st);
    } else if (opt.workload == "enroll_publish") {
      run_enroll_publish(opt, budget, temp, w, st);
    } else {
      throw std::invalid_argument("unknown workload: " + opt.workload);
    }
    obs::set_enabled(false);

    w.info("workload", opt.workload);
    w.info("seed", std::to_string(opt.seed));
    w.info("seconds", opt.seconds);
    w.info("trace", opt.trace ? 1.0 : 0.0);
    w.info("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
    w.info("allowed_cpus", static_cast<double>(cpus.size()));
    w.info("cpu_model", cpu_model());
    w.info("simd_backend", backend::kernels().name);
    w.info("thread_budget", static_cast<double>(budget));
    w.info("pool_threads", pool_threads);
    w.info("mismatches", st.why.empty() ? "none" : st.why);
    std::printf("%s\n", w.render(st.correct, st.attempted, st.failed).c_str());
    std::fflush(stdout);
    return st.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "p2auth_perfbench: %s\n", e.what());
    return 2;
  }
}
