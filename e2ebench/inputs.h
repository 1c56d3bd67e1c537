// Synthetic 25 MB gradients for the aggregation workloads, generated
// before any rank starts and shared with the rank processes.
//
// The inputs live in one MAP_SHARED anonymous mapping. fork() does not
// copy page tables of shared mappings, so each rank process pays resident
// memory only for the pages it reads (its own gradient and the reference
// arrays), as a real DDP rank would. Generation runs in short-lived child
// processes, one per input round, so the parent's heap stays small and is
// not inherited by the ranks either.
#pragma once

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/synthetic_grad.h"
#include "tensor/layout.h"

namespace e2e {

class SharedInputs {
 public:
  /// Generates `rounds` rounds of `world` workers' gradients for `layout`,
  /// the generator rounds seed·rounds + r for r < rounds. Per round it also stores, summed in fp64 and rounded to
  /// float once: the true sum Σ_w g_w, and — with `fp16_bound` — the
  /// per-coordinate error bound of an FP16 ring all-reduce (see bound()).
  SharedInputs(const gcs::ModelLayout& layout, int world, int rounds,
               std::uint64_t seed, bool fp16_bound)
      : d_(layout.total_size()), world_(world), rounds_(rounds),
        arrays_(static_cast<std::size_t>(world) + (fp16_bound ? 2 : 1)) {
    bytes_ = d_ * sizeof(float) * arrays_ * static_cast<std::size_t>(rounds);
    void* p = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("mmap of inputs failed");
    base_ = static_cast<float*>(p);
    std::vector<pid_t> children;
    for (int r = 0; r < rounds; ++r) {
      const pid_t pid = ::fork();
      if (pid < 0) throw std::runtime_error("fork of input generator failed");
      if (pid == 0) {
        generate(layout, r, seed, fp16_bound);
        ::_exit(0);
      }
      children.push_back(pid);
    }
    bool ok = true;
    for (const pid_t pid : children) {
      int status = 0;
      ok &= ::waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
            WEXITSTATUS(status) == 0;
    }
    if (!ok) throw std::runtime_error("input generator failed");
  }
  ~SharedInputs() { ::munmap(base_, bytes_); }
  SharedInputs(const SharedInputs&) = delete;
  SharedInputs& operator=(const SharedInputs&) = delete;

  std::size_t dimension() const noexcept { return d_; }
  int rounds() const noexcept { return rounds_; }

  std::span<const float> grad(int round, int worker) const {
    return array(round, static_cast<std::size_t>(worker));
  }
  /// Σ_w g_w, accumulated in fp64.
  std::span<const float> sum(int round) const {
    return array(round, static_cast<std::size_t>(world_));
  }
  /// Per-coordinate bound on |FP16 ring all-reduce − Σ_w g_w|: each of the
  /// n input conversions and n−1 ring hops rounds to FP16 once (relative
  /// 2^-11, or 2^-25 absolute in the subnormal range), partial sums are
  /// bounded by Σ_w |g_w|, and the float copy of the reference adds 2^-24
  /// of |Σ g|. A 1% factor covers the float adds between FP16 roundings.
  std::span<const float> bound(int round) const {
    return array(round, static_cast<std::size_t>(world_) + 1);
  }

 private:
  std::span<float> array(int round, std::size_t index) const {
    const std::size_t at =
        (static_cast<std::size_t>(round) * arrays_ + index) * d_;
    return {base_ + at, d_};
  }

  void generate(const gcs::ModelLayout& layout, int round, std::uint64_t seed,
                bool fp16_bound) const {
    // The generator's own seed fixes the "model" (per-layer gradient
    // scales) for every run; the benchmark seed picks which rounds of it
    // are drawn, so seeds vary the gradients, not the model.
    gcs::core::SyntheticGradConfig config;
    config.layout = layout;
    config.world_size = world_;
    const gcs::core::SyntheticGradients source(config);
    std::vector<std::vector<float>> grads;
    source.generate(seed * static_cast<std::uint64_t>(rounds_) +
                        static_cast<std::uint64_t>(round),
                    grads);
    const double n = world_;
    for (int w = 0; w < world_; ++w) {
      std::copy(grads[static_cast<std::size_t>(w)].begin(),
                grads[static_cast<std::size_t>(w)].end(),
                array(round, static_cast<std::size_t>(w)).begin());
    }
    auto sum_out = array(round, static_cast<std::size_t>(world_));
    for (std::size_t i = 0; i < d_; ++i) {
      double s = 0.0, a = 0.0;
      for (const auto& g : grads) {
        s += g[i];
        a += std::fabs(static_cast<double>(g[i]));
      }
      sum_out[i] = static_cast<float>(s);
      if (fp16_bound) {
        const double roundings = 2.0 * n - 1.0;
        array(round, static_cast<std::size_t>(world_) + 1)[i] =
            static_cast<float>(1.01 * roundings *
                                   (std::ldexp(a, -11) + std::ldexp(1.0, -25)) +
                               std::ldexp(std::fabs(s), -23));
      }
    }
  }

  std::size_t d_;
  int world_;
  int rounds_;
  std::size_t arrays_;
  std::size_t bytes_ = 0;
  float* base_ = nullptr;
};

}  // namespace e2e
