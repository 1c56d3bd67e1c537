// Value-transparent decorators that let the benchmark attribute a round's
// time to the codec, comm and net layers from outside the program: each
// one forwards every call to the object it wraps and only counts (and,
// with timing on, clocks) what passes through.
//
//   ProbeTransport — comm::Transport: send/recv calls, bytes, time.
//   ProbeCodec     — core::SchemeCodec / CodecRound: begin_round, encode,
//                    absorb, finish; substitutes a ProbeReduceOp for every
//                    WireStage::op so accumulate() calls are clocked too.
//
// With timing off (untraced runs) they take no clock readings; the byte
// and call counters stay on because the correctness checks read them.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "comm/reduce_op.h"
#include "comm/transport_decorators.h"
#include "core/codec.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Per-round layer counters; the benchmark zeroes them before each
/// aggregate_over call and reads them after it.
struct LayerCounters {
  double begin_round_s = 0, encode_s = 0, absorb_s = 0, finish_s = 0;
  double reduce_s = 0;
  std::uint64_t reduce_bytes = 0;
  std::uint64_t encodes = 0;   ///< payloads encoded (every worker slot)
  std::uint64_t stages = 0;    ///< stages = payloads this rank sends
  double send_s = 0, recv_s = 0;
  std::uint64_t send_calls = 0, recv_calls = 0;
  std::uint64_t sent_bytes = 0;
};

/// Times a block into `slot` when `on`; no clock read otherwise.
class Stopwatch {
 public:
  Stopwatch(bool on, double& slot)
      : slot_(on ? &slot : nullptr), start_(on ? Clock::now() : Clock::time_point{}) {}
  ~Stopwatch() {
    if (slot_ != nullptr) *slot_ += seconds_since(start_);
  }
  Stopwatch(const Stopwatch&) = delete;
  Stopwatch& operator=(const Stopwatch&) = delete;

 private:
  double* slot_;
  Clock::time_point start_;
};

class ProbeTransport final : public gcs::comm::ForwardingTransport {
 public:
  ProbeTransport(gcs::comm::Transport& inner, LayerCounters& counters)
      : ForwardingTransport(inner), c_(counters) {}

  void set_timing(bool on) noexcept { timing_ = on; }
  /// Totals since construction (never reset), for the end-of-run
  /// comparison against the fabric's own meters.
  std::uint64_t total_sent() const noexcept { return total_sent_; }
  std::uint64_t total_received() const noexcept { return total_received_; }
  std::uint64_t total_frames() const noexcept { return total_frames_; }
  /// Negative control: misreport the next send's size by `delta` bytes.
  void skew_next_send(std::int64_t delta) noexcept { skew_ = delta; }

  void send(int src, int dst, std::uint64_t tag,
            gcs::ByteBuffer payload) override {
    const auto bytes = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(payload.size()) + skew_);
    skew_ = 0;
    {
      Stopwatch sw(timing_, c_.send_s);
      ForwardingTransport::send(src, dst, tag, std::move(payload));
    }
    ++c_.send_calls;
    ++total_frames_;
    c_.sent_bytes += bytes;
    total_sent_ += bytes;
  }

  gcs::comm::Message recv(int dst, int src, std::uint64_t tag) override {
    gcs::comm::Message m;
    {
      Stopwatch sw(timing_, c_.recv_s);
      m = ForwardingTransport::recv(dst, src, tag);
    }
    ++c_.recv_calls;
    total_received_ += m.payload.size();
    return m;
  }

 private:
  LayerCounters& c_;
  bool timing_ = false;
  std::uint64_t total_sent_ = 0, total_received_ = 0, total_frames_ = 0;
  std::int64_t skew_ = 0;
};

class ProbeReduceOp final : public gcs::comm::ReduceOp {
 public:
  ProbeReduceOp(const gcs::comm::ReduceOp& inner, LayerCounters& counters,
                bool timing)
      : inner_(inner), c_(counters), timing_(timing) {}

  void accumulate(std::span<std::byte> acc,
                  std::span<const std::byte> in) const override {
    {
      Stopwatch sw(timing_, c_.reduce_s);
      inner_.accumulate(acc, in);
    }
    c_.reduce_bytes += in.size();
  }
  std::size_t granularity() const noexcept override {
    return inner_.granularity();
  }
  std::string name() const override { return inner_.name(); }

 private:
  const gcs::comm::ReduceOp& inner_;
  LayerCounters& c_;
  bool timing_;
};

/// Observes the reduced payload of every all-reduce stage (the THC bound
/// needs the consensus ranges). Called with the stage name.
using StageObserver =
    std::function<void(const char* stage, const gcs::ByteBuffer& reduced)>;

class ProbeRound final : public gcs::core::CodecRound {
 public:
  ProbeRound(std::unique_ptr<gcs::core::CodecRound> inner,
             LayerCounters& counters, bool timing,
             const StageObserver& observer)
      : inner_(std::move(inner)), c_(counters), timing_(timing),
        observer_(observer) {}

  bool next_stage(gcs::core::WireStage& stage) override {
    if (!inner_->next_stage(stage)) return false;
    ++c_.stages;
    stage_name_ = stage.name;
    if (stage.op != nullptr) {
      ops_.push_back(
          std::make_unique<ProbeReduceOp>(*stage.op, c_, timing_));
      stage.op = ops_.back().get();
    }
    return true;
  }
  gcs::ByteBuffer encode(int worker) override {
    ++c_.encodes;
    Stopwatch sw(timing_, c_.encode_s);
    return inner_->encode(worker);
  }
  bool supports_encode_range() const override {
    return inner_->supports_encode_range();
  }
  void encode_range(int worker, std::size_t offset,
                    std::span<std::byte> out) override {
    Stopwatch sw(timing_, c_.encode_s);
    inner_->encode_range(worker, offset, out);
  }
  void absorb_reduced(const gcs::ByteBuffer& reduced) override {
    if (observer_) observer_(stage_name_, reduced);
    Stopwatch sw(timing_, c_.absorb_s);
    inner_->absorb_reduced(reduced);
  }
  void absorb_gathered(std::span<const gcs::ByteBuffer> payloads) override {
    Stopwatch sw(timing_, c_.absorb_s);
    inner_->absorb_gathered(payloads);
  }
  void finish(std::span<float> out, gcs::core::RoundStats& stats) override {
    Stopwatch sw(timing_, c_.finish_s);
    inner_->finish(out, stats);
  }

 private:
  std::unique_ptr<gcs::core::CodecRound> inner_;
  LayerCounters& c_;
  bool timing_;
  const StageObserver& observer_;
  const char* stage_name_ = "";
  std::vector<std::unique_ptr<ProbeReduceOp>> ops_;
};

class ProbeCodec final : public gcs::core::SchemeCodec {
 public:
  ProbeCodec(gcs::core::SchemeCodecPtr inner, LayerCounters& counters)
      : inner_(std::move(inner)), c_(counters) {}

  void set_timing(bool on) noexcept { timing_ = on; }
  void set_observer(StageObserver observer) { observer_ = std::move(observer); }

  std::string name() const override { return inner_->name(); }
  gcs::core::AggregationPath path() const override { return inner_->path(); }
  int world_size() const override { return inner_->world_size(); }
  std::size_t dimension() const override { return inner_->dimension(); }
  std::unique_ptr<gcs::core::CodecRound> begin_round(
      std::span<const std::span<const float>> grads,
      std::uint64_t round) override {
    std::unique_ptr<gcs::core::CodecRound> inner;
    {
      Stopwatch sw(timing_, c_.begin_round_s);
      inner = inner_->begin_round(grads, round);
    }
    return std::make_unique<ProbeRound>(std::move(inner), c_, timing_,
                                        observer_);
  }
  void reset() override { inner_->reset(); }
  std::span<const float> ef_memory(int worker) const override {
    return inner_->ef_memory(worker);
  }

 private:
  gcs::core::SchemeCodecPtr inner_;
  LayerCounters& c_;
  bool timing_ = false;
  StageObserver observer_;
};

}  // namespace e2e
