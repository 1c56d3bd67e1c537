// gcs_e2ebench: measured end-to-end benchmark of the aggregation stack.
//
//   gcs_e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--corrupt out|residual|bytes]
//
// Forks world = 4 rank processes. Each holds one net::SocketFabric
// endpoint (Unix-domain sockets, reactor I/O) and drives
// core::AggregationPipeline::aggregate_over through comm::Communicator,
// passing its own gradient in every worker slot, as a DDP rank does.
//
// Workloads (README.md has the reasoning and reference figures):
//   fp16_bert25   FP16 ring all-reduce of a 25 MB transformer-shaped
//                 synthetic gradient, alternating with MLP training to the
//                 target accuracy with FP16 (the strong baseline's TTA).
//   thc_bert25    the same with THC q=4 b=4 saturating, partial rotation.
//   topk_mlp_tta  MLP training to the target accuracy with TopK b=8 and
//                 error feedback (all-gather route, 1.2 MB gradients).
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (timing decorators on, the program's TraceRecorder attached). The last
// stdout line is one JSON object; a summary goes to stderr. Every run
// checks the outputs against references computed here (see check_*), and
// --corrupt injects one fault on purpose so a check must reject the run.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "comm/collectives.h"
#include "common/rng.h"
#include "core/aggregation_pipeline.h"
#include "core/factory.h"
#include "inputs.h"
#include "kernels/kernels.h"
#include "measure/trace.h"
#include "net/launcher.h"
#include "net/socket_fabric.h"
#include "probes.h"
#include "report.h"
#include "tensor/layout.h"
#include "train/dataset.h"
#include "train/mlp.h"
#include "train/optimizer.h"

namespace e2e {
namespace {

constexpr int kWorld = 4;
/// Target size of the aggregation workloads' gradient: one 25 MB DDP
/// bucket of fp32 (make_transformer_like_layout rounds down to whole
/// blocks: 6,304,768 parameters).
constexpr std::size_t kBertParams = 6'500'000;
/// Distinct pre-generated input rounds the 25 MB rounds cycle through.
constexpr int kInputRounds = 4;
/// Pipeline settings shared by every workload.
constexpr const char* kChunk = ":chunk=1048576";

// The training task: a 16-class Gaussian mixture in 256 dimensions and a
// 256-640-192-16 MLP (290,640 parameters, 1.16 MB of fp32 gradient).
constexpr std::size_t kBatch = 32;  // per rank
constexpr double kLearningRate = 0.05;
constexpr double kTargetAccuracy = 0.75;
constexpr int kMaxSteps = 400;
const std::vector<std::size_t> kMlpDims = {256, 640, 192, 16};

gcs::train::GaussianMixtureDataset::Config task_config() {
  gcs::train::GaussianMixtureDataset::Config c;
  c.features = 256;
  c.classes = 16;
  c.separation = 4.0;
  c.noise = 1.0;
  c.eval_samples = 512;
  return c;  // the task is fixed; --seed draws inits and batch streams
}

struct Workload {
  const char* name;
  const char* scheme;
  bool bert25;  ///< runs the 25 MB aggregation rounds before training
};

constexpr Workload kWorkloads[] = {
    {"fp16_bert25", "fp16", true},
    {"thc_bert25", "thc:q=4:b=4:sat:partial", true},
    {"topk_mlp_tta", "topk:b=8", false},
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string corrupt;  ///< "", "out", "residual" or "bytes"
  std::string rendezvous;
};

/// 64-bit FNV-1a over the float words (bit identity is the claim).
std::uint64_t hash_floats(std::span<const float> v) {
  std::uint64_t h = 1469598103934665603ull;
  for (const float x : v) {
    std::uint32_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    h = (h ^ bits) * 1099511628211ull;
  }
  return h;
}

double rss_mb() {
  long pages = 0, resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Peak resident set of this process, less the pages of the shared input
/// mapping it touched (the pre-generated gradients and references belong
/// to the benchmark, and stay resident once read, so subtracting their
/// final size removes them from the peak too).
double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  double shmem_kb = 0;
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "RssShmem: %lf", &shmem_kb) == 1) break;
    }
    std::fclose(f);
  }
  return (static_cast<double>(ru.ru_maxrss) - shmem_kb) / 1024.0;
}

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Rank 0's decision, made identical on every rank (also a barrier).
bool agree(gcs::comm::Communicator& ctl, bool go) {
  gcs::ByteBuffer b(1, std::byte{static_cast<unsigned char>(go ? 1 : 0)});
  gcs::comm::broadcast(ctl, b, 0);
  return b[0] != std::byte{0};
}

/// Share of the program's own round span that no leaf span covers.
double unattributed_share(const gcs::measure::RoundTrace& trace) {
  using gcs::measure::Phase;
  double r0 = 0, r1 = 0;
  std::vector<std::pair<double, double>> leaves;
  for (const auto& s : trace.spans) {
    if (s.phase == Phase::kRound) {
      r0 = s.start_s;
      r1 = s.end_s;
    } else if (s.phase != Phase::kStage) {
      leaves.emplace_back(s.start_s, s.end_s);
    }
  }
  if (r1 <= r0) return 0.0;
  std::sort(leaves.begin(), leaves.end());
  double covered = 0, cur0 = 0, cur1 = -1;
  for (auto [a, b] : leaves) {
    a = std::max(a, r0);
    b = std::min(b, r1);
    if (b <= a) continue;
    if (a > cur1) {
      if (cur1 > cur0) covered += cur1 - cur0;
      cur0 = a;
      cur1 = b;
    } else {
      cur1 = std::max(cur1, b);
    }
  }
  if (cur1 > cur0) covered += cur1 - cur0;
  return 1.0 - covered / (r1 - r0);
}

/// L2 bound on the error saturation clips add to a THC round: a clip
/// loses at most 2^(q-1) = 8 levels of one coordinate, a coordinate is
/// clipped at most once per ring hop (n−1 times), so with c_i clips at
/// coordinate i the error is 8·Δ·sqrt(Σ c_i²) <= 8·Δ·sqrt((n−1)·clips).
double clip_bound(double delta_max, double clips) {
  return 8.0 * delta_max * std::sqrt((kWorld - 1) * clips);
}

struct Pipe {
  std::unique_ptr<gcs::core::AggregationPipeline> pipeline;
  ProbeCodec* codec = nullptr;
};

Pipe build_pipe(const std::string& scheme, const gcs::ModelLayout& layout,
                LayerCounters& counters, gcs::measure::TraceRecorder* rec) {
  const std::string spec = scheme + kChunk;
  auto codec = std::make_unique<ProbeCodec>(
      gcs::core::make_scheme_codec(spec, layout, kWorld), counters);
  Pipe p;
  p.codec = codec.get();
  auto config = gcs::core::parse_pipeline_config(spec, layout, kWorld);
  config.trace = rec;
  p.pipeline = std::make_unique<gcs::core::AggregationPipeline>(
      std::move(codec), std::move(config));
  return p;
}

/// One rank process: set-up, the 25 MB rounds, the training trials.
class RankRun {
 public:
  RankRun(const Options& opt, const SharedInputs* inputs, int rank)
      : opt_(opt), wl_(*opt.workload), inputs_(inputs), rank_(rank) {}

  Report run() {
    setup();
    const double budget = opt_.seconds;
    const double start = now_s();
    // One iteration = one 25 MB round (bert25 workloads) and one training
    // trial, so every metric samples the whole run rather than one phase
    // of it. Traced runs also interleave an untraced and a traced copy on
    // the same inputs, alternating which goes first: their output hashes
    // are compared one to one, and the tracing overhead is measured free of
    // drift between phases.
    for (int k = 0; agree(*ctl_, k < 2 || now_s() < start + budget); ++k) {
      const bool traced_first = opt_.trace && k % 2 == 1;
      const bool traced_second = opt_.trace && k % 2 == 0;
      if (wl_.bert25) {
        if (traced_first) bert_round(*bert_traced_, true, k, "A1.");
        bert_round(*bert_plain_, false, k, "A0.");
        if (traced_second) bert_round(*bert_traced_, true, k, "A1.");
      }
      if (traced_first) trial(*mlp_traced_, k, true, "LB1.");
      trial(*mlp_plain_, k, false, "LB0.");
      if (traced_second) trial(*mlp_traced_, k, true, "LB1.");
    }
    if (opt_.trace) {
      bool same = true;
      for (const char* a : {"A0.hash", "LB0.hash"}) {
        std::string b = a;
        b[b.find('.') - 1] = '1';
        same &= rep_.get_words(a) == rep_.get_words(b);
      }
      rep_.add("transparent", same ? 1.0 : 0.0);
    }
    finish();
    return std::move(rep_);
  }

 private:
  void setup() {
    // Telemetry stays off (the default): nothing but the benchmark's own
    // probes observes the program.
    auto t = Clock::now();
    gcs::net::SocketFabricConfig fc;
    fc.rendezvous = opt_.rendezvous;
    fc.world_size = kWorld;
    fc.rank = rank_;
    fabric_ = std::make_unique<gcs::net::SocketFabric>(fc);
    rep_.add("connect_s", seconds_since(t));
    probe_ = std::make_unique<ProbeTransport>(*fabric_, ctr_);
    comm_.emplace(*probe_, rank_);
    ctl_.emplace(*probe_, rank_);

    rss_before_build_ = rss_mb();
    t = Clock::now();
    if (wl_.bert25) {
      bert_layout_ = gcs::make_transformer_like_layout(kBertParams);
      bert_plain_ = build(wl_.scheme, bert_layout_, nullptr);
      bert_out_.resize(bert_layout_.total_size());
    }
    mlp_plain_ = build(wl_.scheme, mlp_layout(), nullptr);
    rep_.add("build_s", seconds_since(t));
    task_.emplace(task_config());
    model_.emplace(kMlpDims, trial_seed(0, 1));
    if (opt_.trace) {
      if (wl_.bert25) {
        bert_traced_ = build(wl_.scheme, bert_layout_, &recorder_);
      }
      mlp_traced_ = build(wl_.scheme, mlp_layout(), &recorder_);
    }
    rep_.add("ready_at", now_s());
    agree(*ctl_, true);
  }

  static gcs::ModelLayout mlp_layout() {
    return gcs::train::MlpModel(kMlpDims, 0).layout();
  }

  std::unique_ptr<Pipe> build(const std::string& scheme,
                              const gcs::ModelLayout& layout,
                              gcs::measure::TraceRecorder* rec) {
    auto p = std::make_unique<Pipe>(build_pipe(scheme, layout, ctr_, rec));
    p->codec->set_observer([this](const char* stage,
                                  const gcs::ByteBuffer& reduced) {
      const auto* f = reinterpret_cast<const float*>(reduced.data());
      const std::size_t n = reduced.size() / sizeof(float);
      if (std::strcmp(stage, "range-lo") == 0) range_lo_.assign(f, f + n);
      if (std::strcmp(stage, "range-hi") == 0) range_hi_.assign(f, f + n);
    });
    return p;
  }

  std::uint64_t trial_seed(int trial, std::uint64_t stream) const {
    return gcs::derive_seed(opt_.seed, 0x1000 * stream +
                                           static_cast<std::uint64_t>(trial));
  }

  /// One timed aggregate_over call with the layer counters zeroed around
  /// it; records the per-layer series under `prefix` when traced.
  gcs::core::RoundStats round(Pipe& pipe, bool traced,
                              std::span<const float> grad,
                              std::span<float> out, std::uint64_t index,
                              const std::string& prefix, double& seconds) {
    pipe.codec->set_timing(traced);
    probe_->set_timing(traced);
    std::array<std::span<const float>, kWorld> views;
    views.fill(grad);
    if (opt_.corrupt == "bytes" && rank_ == 2 && rounds_ == 1) {
      probe_->skew_next_send(1);
    }
    ctr_ = {};
    const auto t0 = Clock::now();
    const gcs::core::RoundStats stats = pipe.pipeline->aggregate_over(
        *comm_, std::span<const std::span<const float>>(views), out, index);
    seconds = seconds_since(t0);
    ++rounds_;
    if (rounds_ == 1) rep_.add("build_mb", rss_mb() - rss_before_build_);
    pipe_sent_ += ctr_.sent_bytes;
    const auto volume = stats.payload_bytes + stats.metadata_bytes;
    pipe_expected_ +=
        pipe.codec->path() == gcs::core::AggregationPath::kAllGather
            ? kWorld * (kWorld - 1) * volume
            : 2 * (kWorld - 1) * volume;
    if (traced) {
      const LayerCounters c = ctr_;
      const double ms = 1e3;
      const double codec_s = c.begin_round_s + c.encode_s + c.absorb_s + c.finish_s;
      rep_.add(prefix + "round_ms", seconds * ms);
      rep_.add(prefix + "begin_round_ms", c.begin_round_s * ms);
      rep_.add(prefix + "encode_ms", c.encode_s * ms);
      rep_.add(prefix + "absorb_ms", c.absorb_s * ms);
      rep_.add(prefix + "finish_ms", c.finish_s * ms);
      rep_.add(prefix + "useful_encode_ratio",
               c.encodes == 0 ? 0.0
                              : static_cast<double>(c.stages) /
                                    static_cast<double>(c.encodes));
      rep_.add(prefix + "reduce_ms", c.reduce_s * ms);
      rep_.add(prefix + "reduce_MBps",
               c.reduce_s > 0 ? c.reduce_bytes / 1e6 / c.reduce_s : 0.0);
      rep_.add(prefix + "sent_MB", c.sent_bytes / 1e6);
      rep_.add(prefix + "send_calls", static_cast<double>(c.send_calls));
      rep_.add(prefix + "send_ms", c.send_s * ms);
      rep_.add(prefix + "recv_wait_ms", c.recv_s * ms);
      rep_.add(prefix + "recv_calls", static_cast<double>(c.recv_calls));
      rep_.add(prefix + "self_ms",
               (seconds - codec_s - c.reduce_s - c.send_s - c.recv_s) * ms);
      rep_.add(prefix + "unattributed_share",
               unattributed_share(recorder_.take(index, wl_.scheme, "socket")));
    } else {
      rep_.add(prefix + "round_ms", seconds * 1e3);
    }
    return stats;
  }

  /// One 25 MB round on pre-generated input j mod kInputRounds, checked.
  void bert_round(Pipe& pipe, bool traced, int j, const std::string& prefix) {
    const bool thc = std::strncmp(wl_.scheme, "thc", 3) == 0;
    const int in = j % inputs_->rounds();
    double seconds = 0;
    const auto stats = round(pipe, traced, inputs_->grad(in, rank_), bert_out_,
                             static_cast<std::uint64_t>(j), prefix, seconds);
    rep_.add_word(prefix + "hash", hash_floats(bert_out_));
    if (opt_.corrupt == "out" && j == 1) corrupt_output(thc, in, stats);
    check_bert(thc, in, stats, prefix);
  }

  double thc_quant_bound(std::uint64_t payload_bytes, double& delta_max) const {
    // Every worker's level lies within one step Δ_k = (hi−lo)/(2^q−1) of its
    // rotated coordinate (stochastic rounding inside the shared range), so
    // the level-sum error is below n·Δ_k per coordinate; the rotation is
    // orthonormal, so the L2 norm carries over to the output.
    constexpr unsigned q = 4, b = 4;
    const std::size_t padded = payload_bytes * 8 / b;
    const std::size_t blocks = range_lo_.size();
    const double block = static_cast<double>(padded) / static_cast<double>(blocks);
    double sq = 0;
    delta_max = 0;
    for (std::size_t k = 0; k < blocks; ++k) {
      const double delta = (static_cast<double>(range_hi_[k]) - range_lo_[k]) /
                           ((1u << q) - 1);
      delta_max = std::max(delta_max, delta);
      sq += block * (kWorld * delta) * (kWorld * delta);
    }
    return std::sqrt(sq);
  }

  void corrupt_output(bool thc, int in, const gcs::core::RoundStats& stats) {
    constexpr std::size_t i = 12345;
    double tolerance = 0;
    if (thc) {
      double delta_max = 0;
      tolerance = thc_quant_bound(stats.payload_bytes, delta_max) +
                  clip_bound(delta_max, kWorld * stats.sat.clips);
    } else {
      tolerance = inputs_->bound(in)[i];
    }
    bert_out_[i] += static_cast<float>(4.0 * tolerance);
  }

  /// Per-round output checks against the fp64 reference sum.
  void check_bert(bool thc, int in, const gcs::core::RoundStats& stats,
                  const std::string& prefix) {
    const auto sum = inputs_->sum(in);
    double err2 = 0, sum2 = 0, worst = 0;
    const auto bound = thc ? std::span<const float>{} : inputs_->bound(in);
    for (std::size_t i = 0; i < sum.size(); ++i) {
      const double e = static_cast<double>(bert_out_[i]) - sum[i];
      err2 += e * e;
      sum2 += static_cast<double>(sum[i]) * sum[i];
      if (!thc) worst = std::max(worst, std::fabs(e) / bound[i]);
    }
    rep_.add(prefix + "vnmse", err2 / sum2);
    if (thc) {
      double delta_max = 0;
      const double quant = thc_quant_bound(stats.payload_bytes, delta_max);
      rep_.add(prefix + "thc_err", std::sqrt(err2));
      // Float slack of the rotation and decode arithmetic.
      rep_.add(prefix + "thc_quant_bound", quant + 1e-5 * std::sqrt(sum2));
      rep_.add(prefix + "thc_delta_max", delta_max);
      rep_.add(prefix + "thc_clips", static_cast<double>(stats.sat.clips));
    } else {
      rep_.add(prefix + "fp16_worst", worst);
    }
  }

  /// One training run from a fresh model to the target accuracy.
  void trial(Pipe& pipe, int k, bool traced, const std::string& lp) {
    if (k > 0 || traced) model_.emplace(kMlpDims, trial_seed(k, 1));
    auto& model = *model_;
    const std::size_t d = model.dimension();
    gcs::train::SgdMomentum opt(d, kLearningRate, 0.9);
    pipe.codec->reset();
    const std::uint64_t offset = trial_seed(k, 2) >> 24;
    const bool ef = !pipe.codec->ef_memory(rank_).empty();
    const bool topk = !wl_.bert25;
    std::vector<float> grad(d), out(d), mean(d), e_before(d);
    std::vector<double> s_out(d), g_sum(d), sent_abs(d), comp_abs(d);
    gcs::train::Batch batch;
    double work_s = 0;
    int step = 0;
    bool reached = false;
    while (!reached && step < kMaxSteps) {
      if (ef) {
        const auto e = pipe.codec->ef_memory(rank_);
        std::copy(e.begin(), e.end(), e_before.begin());
      }
      const auto t_sample = Clock::now();
      task_->sample_batch(rank_, offset + static_cast<std::uint64_t>(step),
                          kBatch, batch);
      const auto t_step = Clock::now();
      model.forward_backward(batch, grad);
      const double fwd_s = seconds_since(t_step);
      double agg_s = 0;
      round(pipe, traced, grad, out, static_cast<std::uint64_t>(step), lp,
            agg_s);
      const auto t_opt = Clock::now();
      const float inv_n = 1.0f / kWorld;
      for (std::size_t i = 0; i < d; ++i) mean[i] = out[i] * inv_n;
      opt.step(model.params(), mean);
      const auto t_end = Clock::now();
      work_s += std::chrono::duration<double>(t_end - t_sample).count();
      rep_.add("B.step_ms",
               std::chrono::duration<double>(t_end - t_step).count() * 1e3);
      rep_.add("B.fwd_bwd_ms", fwd_s * 1e3);
      rep_.add("B.opt_ms",
               std::chrono::duration<double>(t_end - t_opt).count() * 1e3);
      rep_.add_word(lp + "hash", hash_floats(out));
      if (ef) {
        // Error-feedback bookkeeping: y = e + g is what the codec
        // compensated; a coordinate whose residual is now zero was sent.
        const auto e_after = pipe.codec->ef_memory(rank_);
        for (std::size_t i = 0; i < d; ++i) {
          const float y = e_before[i] + grad[i];
          s_out[i] += out[i];
          g_sum[i] += grad[i];
          comp_abs[i] += std::fabs(y);
          if (e_after[i] == 0.0f) sent_abs[i] += std::fabs(y);
        }
      }
      if (topk) rep_.add("B.vnmse", train_vnmse(grad, out));
      ++step;
      const auto t_eval = Clock::now();
      reached = accuracy(model) >= kTargetAccuracy;
      rep_.add("B.eval_ms", seconds_since(t_eval) * 1e3);
    }
    rep_.add("B.steps", step);
    rep_.add("B.reached", reached ? 1.0 : 0.0);
    rep_.add("B.work_s", work_s);
    rep_.add_word("B.param_hash", hash_floats(model.params()));
    if (ef) check_conservation(pipe, s_out, g_sum, sent_abs, comp_abs, step);
  }

  /// Held-out accuracy, evaluated data-parallel as DDP does: each rank
  /// scores its quarter of the eval set and the counts are summed.
  double accuracy(gcs::train::MlpModel& model) {
    const auto& all = task_->eval_set();
    const std::size_t per = all.batch / kWorld;
    gcs::train::Batch part;
    part.batch = per;
    part.features = all.features;
    const auto r = static_cast<std::size_t>(rank_);
    part.x.assign(all.x.begin() + r * per * all.features,
                  all.x.begin() + (r + 1) * per * all.features);
    part.y.assign(all.y.begin() + r * per, all.y.begin() + (r + 1) * per);
    const auto correct = static_cast<std::uint32_t>(
        std::lround(model.evaluate(part).accuracy * static_cast<double>(per)));
    gcs::ByteBuffer mine(sizeof correct);
    std::memcpy(mine.data(), &correct, sizeof correct);
    std::uint64_t total = 0;
    for (const auto& c : gcs::comm::all_gather(*ctl_, std::move(mine))) {
      std::uint32_t v;
      std::memcpy(&v, c.data(), sizeof v);
      total += v;
    }
    return static_cast<double>(total) / static_cast<double>(per * kWorld);
  }

  /// Exchanges per-coordinate records of `width` doubles with every rank
  /// in slices, so the bookkeeping never holds more than a few hundred KB
  /// (it must not dominate the ranks' resident memory). `pack(i, rec)`
  /// fills this rank's record of coordinate i; `visit(i, recs)` sees all
  /// ranks' records of coordinate i.
  template <typename Pack, typename Visit>
  void exchange(std::size_t d, std::size_t width, Pack&& pack, Visit&& visit) {
    constexpr std::size_t kSlice = 1 << 15;
    std::vector<double> recs(kWorld * width);
    for (std::size_t off = 0; off < d; off += kSlice) {
      const std::size_t n = std::min(kSlice, d - off);
      gcs::ByteBuffer mine(n * width * sizeof(double));
      auto* p = reinterpret_cast<double*>(mine.data());
      for (std::size_t i = 0; i < n; ++i) pack(off + i, p + i * width);
      const auto all = gcs::comm::all_gather(*ctl_, std::move(mine));
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t r = 0; r < kWorld; ++r) {
          std::memcpy(&recs[r * width],
                      all[r].data() + i * width * sizeof(double),
                      width * sizeof(double));
        }
        visit(off + i, recs);
      }
    }
  }

  /// vNMSE of one training aggregate against the exact fp64 sum of all
  /// ranks' gradients (exchanged outside the timed step).
  double train_vnmse(const std::vector<float>& grad,
                     const std::vector<float>& out) {
    double err2 = 0, sum2 = 0;
    exchange(
        grad.size(), 1, [&](std::size_t i, double* rec) { rec[0] = grad[i]; },
        [&](std::size_t i, const std::vector<double>& recs) {
          double s = 0;
          for (const double g : recs) s += g;
          err2 += (out[i] - s) * (out[i] - s);
          sum2 += s * s;
        });
    return err2 / sum2;
  }

  /// Error-feedback conservation over one trial: Σ_t out_t + Σ_r e_r,T
  /// must equal Σ_t Σ_r g_r,t up to the rounding the codec is allowed —
  /// FP16 rounding of the values it sends (2^-11 relative, 2^-25 absolute
  /// below the FP16 normal range) and float rounding of the compensate
  /// and scatter-add arithmetic.
  void check_conservation(Pipe& pipe, const std::vector<double>& s_out,
                          const std::vector<double>& g_sum,
                          const std::vector<double>& sent_abs,
                          const std::vector<double>& comp_abs, int steps) {
    const auto e = pipe.codec->ef_memory(rank_);
    const bool corrupt = opt_.corrupt == "residual" && rank_ == 1;
    double worst = 0;
    exchange(
        s_out.size(), 3,
        [&](std::size_t i, double* rec) {
          rec[0] = g_sum[i] - e[i];
          if (corrupt && i == 7) rec[0] -= 1.0;
          rec[1] = sent_abs[i];
          rec[2] = comp_abs[i];
        },
        [&](std::size_t i, const std::vector<double>& recs) {
          double net = 0, sent = 0, comp = 0;
          for (std::size_t r = 0; r < kWorld; ++r) {
            net += recs[3 * r];
            sent += recs[3 * r + 1];
            comp += recs[3 * r + 2];
          }
          const double tol = 1.01 * (std::ldexp(sent, -11) +
                                     std::ldexp(comp + kWorld * sent, -24) +
                                     std::ldexp(double(steps) * kWorld, -25));
          worst = std::max(worst, std::fabs(s_out[i] - net) / tol);
        });
    rep_.add("B.conservation_worst", worst);
  }

  void finish() {
    agree(*ctl_, true);
    // Reactor::~Reactor closes its sockets without flushing frames still
    // queued for the loop, so a rank that tore its fabric down right after
    // its last send could cut a frame a peer is still reading. Wait until
    // every frame this rank sent has left the reactor.
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (fabric_->reactor_stats().frames_flushed < probe_->total_frames() &&
           Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    rep_.add_word("fabric_sent", fabric_->bytes_sent(rank_));
    rep_.add_word("fabric_received", fabric_->bytes_received(rank_));
    rep_.add_word("probe_sent", probe_->total_sent());
    rep_.add_word("probe_received", probe_->total_received());
    rep_.add_word("pipe_sent", pipe_sent_);
    rep_.add_word("pipe_expected", pipe_expected_);
    rep_.add_word("rounds", rounds_);
    rep_.add("peak_rss_mb", peak_rss_mb());
  }

  const Options& opt_;
  const Workload& wl_;
  const SharedInputs* inputs_;
  const int rank_;
  Report rep_;
  LayerCounters ctr_;
  std::unique_ptr<gcs::net::SocketFabric> fabric_;
  std::unique_ptr<ProbeTransport> probe_;
  std::optional<gcs::comm::Communicator> comm_, ctl_;
  gcs::measure::TraceRecorder recorder_;
  gcs::ModelLayout bert_layout_;
  std::unique_ptr<Pipe> bert_plain_, bert_traced_, mlp_plain_, mlp_traced_;
  std::vector<float> bert_out_;
  std::optional<gcs::train::GaussianMixtureDataset> task_;
  std::optional<gcs::train::MlpModel> model_;
  std::vector<float> range_lo_, range_hi_;
  double rss_before_build_ = 0;
  std::uint64_t rounds_ = 0, pipe_sent_ = 0, pipe_expected_ = 0;
};

// ------------------------------------------------------------ the parent

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-index maximum over ranks of a per-rank series (the slowest rank
/// sets a synchronous round's time).
std::vector<double> slowest(const std::vector<Report>& reps,
                            const std::string& name) {
  std::vector<double> out = reps[0].get(name);
  for (const auto& r : reps) {
    const auto& v = r.get(name);
    for (std::size_t i = 0; i < std::min(v.size(), out.size()); ++i) {
      out[i] = std::max(out[i], v[i]);
    }
  }
  return out;
}

/// Median over ranks of each rank's median of a per-round series.
double rank_median(const std::vector<Report>& reps, const std::string& name) {
  std::vector<double> per_rank;
  for (const auto& r : reps) per_rank.push_back(median(r.get(name)));
  return median(per_rank);
}

std::vector<Check> run_checks(const Options& opt,
                              const std::vector<Report>& reps) {
  std::vector<Check> checks;
  auto add = [&checks](std::string name, bool ok, std::string detail) {
    checks.push_back({std::move(name), ok, std::move(detail)});
  };
  const Report& r0 = reps[0];
  bool same = true;
  for (const auto& r : reps) {
    for (const char* w : {"A0.hash", "A1.hash", "LB0.hash", "LB1.hash",
                          "B.param_hash", "rounds"}) {
      same &= r.get_words(w) == r0.get_words(w);
    }
  }
  add("rank_agreement", same,
      "per-round output hashes, final parameters and round counts agree "
      "across ranks");

  std::uint64_t fs = 0, fr = 0, pipe_sent = 0;
  bool probe_ok = true, expected_same = true;
  for (const auto& r : reps) {
    fs += r.get_words("fabric_sent")[0];
    fr += r.get_words("fabric_received")[0];
    probe_ok &= r.get_words("probe_sent") == r.get_words("fabric_sent") &&
                r.get_words("probe_received") == r.get_words("fabric_received");
    pipe_sent += r.get_words("pipe_sent")[0];
    expected_same &= r.get_words("pipe_expected") == r0.get_words("pipe_expected");
  }
  add("bytes_balance", fs == fr,
      "sent " + std::to_string(fs) + " == received " + std::to_string(fr));
  add("probe_vs_fabric", probe_ok,
      "decorator byte meters equal SocketFabric::bytes_sent/received");
  const std::uint64_t expected = r0.get_words("pipe_expected")[0];
  add("wire_volume", expected_same && pipe_sent == expected,
      "pipeline bytes " + std::to_string(pipe_sent) + " == volume implied by "
      "RoundStats " + std::to_string(expected));

  for (const std::string p : {"A0.", "A1."}) {
    if (!r0.get(p + "fp16_worst").empty()) {
      double worst = 0;
      for (const auto& r : reps) {
        for (const double w : r.get(p + "fp16_worst")) worst = std::max(worst, w);
      }
      std::ostringstream os;
      os << "max |out - sum| / per-coordinate FP16 bound = " << worst;
      add("fp16_bound", worst <= 1.0, os.str());
    }
    if (!r0.get(p + "thc_err").empty()) {
      const auto& err = r0.get(p + "thc_err");
      double worst = 0;
      for (std::size_t j = 0; j < err.size(); ++j) {
        double clips = 0;
        for (const auto& r : reps) clips += r.get(p + "thc_clips")[j];
        const double bound = r0.get(p + "thc_quant_bound")[j] +
                             clip_bound(r0.get(p + "thc_delta_max")[j], clips);
        worst = std::max(worst, err[j] / bound);
      }
      std::ostringstream os;
      os << "max ||out - sum|| / (quantization + clip bound) = " << worst;
      add("thc_bound", worst <= 1.0, os.str());
    }
  }
  if (!r0.get("B.conservation_worst").empty()) {
    double worst = 0;
    for (const auto& r : reps) {
      for (const double w : r.get("B.conservation_worst")) worst = std::max(worst, w);
    }
    std::ostringstream os;
    os << "max |sum out + sum e - sum g| / rounding tolerance = " << worst;
    add("ef_conservation", worst <= 1.0, os.str());
  }
  bool reached = true;
  for (const double x : r0.get("B.reached")) reached &= x == 1.0;
  add("target_reached", reached, "every trial reached the target accuracy");
  if (opt.trace) {
    bool transparent = true;
    for (const auto& r : reps) {
      for (const double x : r.get("transparent")) transparent &= x == 1.0;
    }
    add("trace_transparent", transparent,
        "traced and untraced per-round output hashes are equal");
  }
  return checks;
}

std::vector<Metric> end_to_end(const std::vector<Report>& reps,
                               double setup_s, bool bert25) {
  const Report& r0 = reps[0];
  std::vector<Metric> m;
  m.push_back({"setup_s", setup_s, "s"});
  const auto rounds = slowest(reps, bert25 ? "A0.round_ms" : "LB0.round_ms");
  m.push_back({"round_ms", median(rounds), "ms"});
  double rss = 0;
  for (const auto& r : reps) rss = std::max(rss, r.scalar("peak_rss_mb"));
  m.push_back({"rank_peak_rss_mb", rss, "MB"});
  m.push_back({"vnmse", mean(r0.get(bert25 ? "A0.vnmse" : "B.vnmse")), "ratio"});
  // Training wall-clock per trial (the slowest rank's sampling and steps,
  // evaluation excluded), median over the run's trials.
  m.push_back({"tta_s", median(slowest(reps, "B.work_s")), "s"});
  m.push_back({"rounds_to_target", mean(r0.get("B.steps")), "rounds"});
  m.push_back({"step_ms", median(slowest(reps, "B.step_ms")), "ms"});
  return m;
}

std::vector<Metric> per_layer(const std::vector<Report>& reps, bool bert25) {
  const std::string p = bert25 ? "A1." : "LB1.";
  auto rm = [&](const char* name) { return rank_median(reps, p + name); };
  std::vector<Metric> m = {
      {"codec.begin_round_ms", rm("begin_round_ms"), "ms"},
      {"codec.encode_ms", rm("encode_ms"), "ms"},
      {"codec.absorb_ms", rm("absorb_ms"), "ms"},
      {"codec.finish_ms", rm("finish_ms"), "ms"},
      {"codec.useful_encode_ratio", rm("useful_encode_ratio"), "ratio"},
      {"comm.reduce_ms", rm("reduce_ms"), "ms"},
      {"comm.reduce_MBps", rm("reduce_MBps"), "MB/s"},
      {"net.sent_MB", rm("sent_MB"), "MB"},
      {"net.send_calls", rm("send_calls"), "count"},
      {"net.send_ms", rm("send_ms"), "ms"},
      {"net.recv_wait_ms", rm("recv_wait_ms"), "ms"},
      {"net.recv_calls", rm("recv_calls"), "count"},
      {"pipeline.self_ms", rm("self_ms"), "ms"},
      {"net.connect_s", rank_median(reps, "connect_s"), "s"},
      {"pipeline.build_s", rank_median(reps, "build_s"), "s"},
      {"mem.build_mb", rank_median(reps, "build_mb"), "MB"},
      {"train.fwd_bwd_ms", rank_median(reps, "B.fwd_bwd_ms"), "ms"},
      {"train.opt_ms", rank_median(reps, "B.opt_ms"), "ms"},
      {"train.eval_ms", rank_median(reps, "B.eval_ms"), "ms"},
      {"trace.unattributed_share", rm("unattributed_share"), "ratio"},
  };
  // Tracing overhead: traced over untraced round time, both slowest-rank
  // medians over the same rounds of the same run.
  const double untraced =
      median(slowest(reps, bert25 ? "A0.round_ms" : "LB0.round_ms"));
  const double traced = median(slowest(reps, p + "round_ms"));
  m.push_back({"trace.overhead", untraced > 0 ? traced / untraced : 0.0, "ratio"});
  return m;
}

void print_json(bool correct, std::uint64_t attempted,
                const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": 0, \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
       << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int usage(const char* why) {
  std::cerr << "gcs_e2ebench: " << why
            << "\nusage: gcs_e2ebench --workload fp16_bert25|thc_bert25|"
               "topk_mlp_tta --seed N --seconds S --trace 0|1 "
               "[--corrupt out|residual|bytes]\n";
  return 2;
}

int run_main(int argc, char** argv) {
  const double t_main = now_s();
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      for (const auto& w : kWorkloads) {
        if (value == w.name) opt.workload = &w;
      }
      if (opt.workload == nullptr) return usage("unknown workload");
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--corrupt") {
      opt.corrupt = value;
    } else {
      return usage(("unknown flag " + key).c_str());
    }
  }
  if (opt.workload == nullptr || opt.seconds <= 0) return usage("missing flags");
  const bool bert25 = opt.workload->bert25;

  // Inputs first (not part of set-up time): 25 MB gradients and their
  // references, shared with the ranks.
  const double t_gen = now_s();
  std::unique_ptr<SharedInputs> inputs;
  if (bert25) {
    inputs = std::make_unique<SharedInputs>(
        gcs::make_transformer_like_layout(kBertParams), kWorld, kInputRounds,
        opt.seed, std::strcmp(opt.workload->scheme, "fp16") == 0);
  }
  const double t_fork = now_s();
  // The rendezvous socket lives in the working directory.
  opt.rendezvous = "unix:.e2ebench-" + std::to_string(::getpid()) + ".sock";
  std::cout.flush();
  std::vector<Report> reps;
  {
    gcs::net::ForkedWorkers ranks(0, kWorld, [&](int rank) {
      return RankRun(opt, inputs.get(), rank).run().encode();
    });
    for (const auto& buf : ranks.join()) reps.push_back(Report::decode(buf));
  }
  ::unlink(opt.rendezvous.substr(5).c_str());

  double ready = 0;
  for (const auto& r : reps) ready = std::max(ready, r.scalar("ready_at"));
  const double setup_s = (t_gen - t_main) + (ready - t_fork);

  const auto checks = run_checks(opt, reps);
  bool correct = true;
  for (const auto& c : checks) {
    correct &= c.ok;
    std::cerr << (c.ok ? "check ok: " : "CHECK FAILED: ") << c.name << " ("
              << c.detail << ")\n";
  }
  const auto metrics =
      opt.trace ? per_layer(reps, bert25) : end_to_end(reps, setup_s, bert25);
  std::cerr << "set-up: inputs " << t_fork - t_gen << " s, ranks ready "
            << ready - t_fork << " s after fork (connect_s per rank:";
  for (const auto& r : reps) std::cerr << ' ' << r.scalar("connect_s");
  std::cerr << ")\n";
  std::cerr << "workload " << opt.workload->name << " seed " << opt.seed
            << " kernels " << gcs::kernels::backend_name() << " trials "
            << reps[0].get("B.steps").size() << "\n";
  for (const auto& m : metrics) {
    std::cerr << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  print_json(correct, reps[0].get_words("rounds")[0], metrics);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "gcs_e2ebench: " << e.what() << "\n";
    return 1;
  }
}
