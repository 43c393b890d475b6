// Minimal binary serialization layer for checkpoint/partial/trajectory files.
//
// Everything the sweep service persists — sweep partials (--shard/--merge),
// engine checkpoints (--checkpoint-every/--resume), and delta-encoded
// trajectory stores — goes through this one writer/reader pair so the byte
// layout is defined in exactly one place. The format is deliberately plain:
// fixed-width little-endian integers where random access or versioning
// matters (magic numbers, counts), LEB128 varints where values are small in
// practice (deltas, lengths), zig-zag for signed deltas, and IEEE-754 bit
// patterns for doubles so round-trips are bit-exact (the shard/merge
// contract is *byte* identity of the final report, which hexfloat
// fingerprints would expose to any double rounding drift).
//
// Readers throw std::runtime_error on truncated or malformed input; the
// callers (CLI merge/resume paths) treat that as a corrupt file, not a
// crash, so partial writes from preempted sweeps fail loud and early.
#pragma once

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace ppfs::bin {

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  // Unsigned LEB128.
  void var(std::uint64_t v) {
    while (v >= 0x80) {
      u8(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    u8(static_cast<std::uint8_t>(v));
  }

  // Zig-zag signed varint: small magnitudes of either sign stay short.
  void zig(std::int64_t v) {
    var((static_cast<std::uint64_t>(v) << 1) ^
        static_cast<std::uint64_t>(v >> 63));
  }

  // Bit-exact double (round-trips NaN payloads and signed zeros too).
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void str(std::string_view s) {
    var(s.size());
    buf_.append(s.data(), s.size());
  }

  void raw(std::string_view s) { buf_.append(s.data(), s.size()); }

  [[nodiscard]] const std::string& data() const noexcept { return buf_; }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  std::string buf_;
};

class Reader {
 public:
  explicit Reader(std::string_view buf) noexcept : buf_(buf) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(buf_[pos_++]);
  }

  [[nodiscard]] std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    return v;
  }

  [[nodiscard]] std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    return v;
  }

  [[nodiscard]] std::uint64_t var() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint8_t b = u8();
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if (!(b & 0x80)) return v;
    }
    throw std::runtime_error("bin::Reader: varint overlong");
  }

  [[nodiscard]] std::int64_t zig() {
    const std::uint64_t v = var();
    return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
  }

  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }

  [[nodiscard]] std::string str() {
    const std::uint64_t n = var();
    need(n);
    std::string s(buf_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return buf_.size() - pos_;
  }
  [[nodiscard]] bool done() const noexcept { return pos_ == buf_.size(); }

  void need(std::uint64_t n) const {
    if (n > buf_.size() - pos_)
      throw std::runtime_error("bin::Reader: truncated input");
  }

 private:
  std::string_view buf_;
  std::size_t pos_ = 0;
};

// Write `data` to `path` atomically: write a sibling temp file, flush, then
// rename over the destination. A reader (or a sweep resumed after SIGKILL)
// therefore sees either the previous complete file or the new complete file,
// never a truncated mix. Each call writes its own temp file (pid plus a
// per-process counter), so concurrent writers of one path never rename
// each other's half-written data. Returns false (and leaves no temp debris)
// on error.
inline bool atomic_write_file(const std::string& path, std::string_view data) {
  static std::atomic<std::uint64_t> calls{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(calls.fetch_add(1));
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) return false;
    os.write(data.data(), static_cast<std::streamsize>(data.size()));
    os.flush();
    if (!os) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

// Remove the temp files atomic_write_file left next to `path` when its
// writer was killed mid-write: `path.tmp.<pid>.<k>` whose pid names no
// live process. A live writer's temp file is never touched.
inline void remove_dead_writer_temps(const std::string& path) {
  namespace fs = std::filesystem;
  const fs::path target = fs::absolute(path);
  const std::string prefix = target.filename().string() + ".tmp.";
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(target.parent_path(), ec)) {
    const std::string name = entry.path().filename().string();
    const std::size_t dot = name.rfind('.');
    if (name.rfind(prefix, 0) != 0 || dot <= prefix.size()) continue;
    const std::string pid = name.substr(prefix.size(), dot - prefix.size());
    if (pid.size() > 9 || pid.find_first_not_of("0123456789") != pid.npos)
      continue;
    if (::kill(static_cast<pid_t>(std::stol(pid)), 0) != 0 && errno == ESRCH)
      fs::remove(entry.path(), ec);
  }
}

// Whole-file slurp; empty-string-on-missing is ambiguous, so failure throws.
inline std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("bin::read_file: cannot open " + path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return std::move(ss).str();
}

}  // namespace ppfs::bin
