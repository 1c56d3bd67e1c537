// What one rank process sends back to the benchmark's parent: named series
// of doubles and of 64-bit words (hashes, byte counts), serialized through
// the launcher's report pipe.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace e2e {

struct Report {
  std::map<std::string, std::vector<double>> series;
  std::map<std::string, std::vector<std::uint64_t>> words;

  void add(const std::string& name, double value) {
    series[name].push_back(value);
  }
  void add_word(const std::string& name, std::uint64_t value) {
    words[name].push_back(value);
  }
  const std::vector<double>& get(const std::string& name) const {
    static const std::vector<double> empty;
    const auto it = series.find(name);
    return it == series.end() ? empty : it->second;
  }
  const std::vector<std::uint64_t>& get_words(const std::string& name) const {
    static const std::vector<std::uint64_t> empty;
    const auto it = words.find(name);
    return it == words.end() ? empty : it->second;
  }
  double scalar(const std::string& name) const {
    const auto& v = get(name);
    return v.empty() ? 0.0 : v.back();
  }

  gcs::ByteBuffer encode() const {
    gcs::ByteBuffer buf;
    gcs::ByteWriter w(buf);
    auto put_name = [&w](const std::string& name) {
      w.put<std::uint32_t>(static_cast<std::uint32_t>(name.size()));
      w.put_span<char>(std::span<const char>(name.data(), name.size()));
    };
    w.put<std::uint32_t>(static_cast<std::uint32_t>(series.size()));
    for (const auto& [name, values] : series) {
      put_name(name);
      w.put<std::uint64_t>(values.size());
      w.put_span<double>(values);
    }
    w.put<std::uint32_t>(static_cast<std::uint32_t>(words.size()));
    for (const auto& [name, values] : words) {
      put_name(name);
      w.put<std::uint64_t>(values.size());
      w.put_span<std::uint64_t>(values);
    }
    return buf;
  }

  static Report decode(const gcs::ByteBuffer& buf) {
    Report r;
    gcs::ByteReader rd(buf);
    auto get_name = [&rd] {
      const auto len = rd.get<std::uint32_t>();
      const auto chars = rd.get_span<char>(len);
      return std::string(chars.begin(), chars.end());
    };
    for (auto n = rd.get<std::uint32_t>(); n > 0; --n) {
      const std::string name = get_name();
      const auto count = rd.get<std::uint64_t>();
      auto& values = r.series[name];
      // Element-wise: the span would be misaligned after a name.
      for (std::uint64_t i = 0; i < count; ++i) {
        values.push_back(rd.get<double>());
      }
    }
    for (auto n = rd.get<std::uint32_t>(); n > 0; --n) {
      const std::string name = get_name();
      const auto count = rd.get<std::uint64_t>();
      auto& values = r.words[name];
      for (std::uint64_t i = 0; i < count; ++i) {
        values.push_back(rd.get<std::uint64_t>());
      }
    }
    return r;
  }
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace e2e
