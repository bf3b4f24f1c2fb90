// Field-walk archives for the OpenFlow 1.0 wire format.
//
// Each wire structure's layout is written once, as a field walk next to the
// structure (namespace tango::of, found by argument-dependent lookup):
//
//   template <class Io>
//   void walk(Io& io, wire::Like<T> auto& m);
//
// A walk names the structure's fields in wire order. Three archives run it:
// Writer appends them to a BufWriter in network byte order, Reader parses
// them back from a BufReader, and Sizer adds up their byte counts. So
// encode, wire_size and decode cannot disagree about a layout. Reader keeps
// BufReader's sticky failure: a short read, a bad length or an unknown tag
// fails the whole walk, and the caller checks failed() once at the end.
//
// The vocabulary a walk uses, the same on all three archives:
//   io(f...)        integers, enums (at their underlying width), MAC addresses
//   io.pad(n)       n zero bytes, skipped on read
//   io.text(s, n)   a NUL-padded string field of n bytes
//   io.bytes(v)     a byte vector running to the end of the enclosing scope
//   io.list(v)      walked entries running to the end of the enclosing scope
//   io.sized(k, f)  a u16 length, then the scope that f walks; the length
//                   counts f's bytes plus k
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/buffer.h"
#include "openflow/match.h"

namespace tango::of::wire {

/// M is one of T..., const or not: writers and sizers walk const values,
/// readers walk mutable ones.
template <class M, class... T>
concept Like = (std::same_as<std::remove_const_t<M>, T> || ...);

template <class T>
concept Scalar = std::is_integral_v<T> || std::is_enum_v<T>;

class Sizer {
 public:
  static constexpr bool kReads = false;

  template <class... F>
  constexpr void operator()(const F&... fields) {
    ((n_ += width(fields)), ...);
  }
  constexpr void pad(std::size_t n) { n_ += n; }
  constexpr void text(const std::string&, std::size_t width) { n_ += width; }
  constexpr void bytes(const std::vector<std::uint8_t>& v) { n_ += v.size(); }
  template <class T>
  constexpr void list(const std::vector<T>& items) {
    for (const auto& item : items) walk(*this, item);
  }
  template <class F>
  constexpr void sized(std::size_t, F&& scope) {
    n_ += 2;
    scope(*this);
  }

  [[nodiscard]] constexpr std::size_t size() const { return n_; }

 private:
  template <Scalar T>
  static constexpr std::size_t width(const T&) { return sizeof(T); }
  static constexpr std::size_t width(const MacAddr& mac) { return mac.size(); }

  std::size_t n_ = 0;
};

class Writer {
 public:
  static constexpr bool kReads = false;

  explicit Writer(BufWriter& out) : out_(out) {}

  template <class... F>
  void operator()(const F&... fields) {
    (put(fields), ...);
  }
  void pad(std::size_t n) { out_.zeros(n); }
  void text(const std::string& s, std::size_t width) {
    const std::size_t n = std::min(s.size(), width - 1);
    out_.raw({reinterpret_cast<const std::uint8_t*>(s.data()), n});
    out_.zeros(width - n);
  }
  void bytes(const std::vector<std::uint8_t>& v) { out_.raw(v); }
  template <class T>
  void list(const std::vector<T>& items) {
    for (const auto& item : items) walk(*this, item);
  }
  template <class F>
  void sized(std::size_t extra, F&& scope) {
    const std::size_t at = out_.size();
    out_.u16(0);
    scope(*this);
    out_.patch_u16(at, static_cast<std::uint16_t>(out_.size() - at - 2 + extra));
  }

 private:
  template <Scalar T>
  void put(T v) {
    if constexpr (sizeof(T) == 1) out_.u8(static_cast<std::uint8_t>(v));
    if constexpr (sizeof(T) == 2) out_.u16(static_cast<std::uint16_t>(v));
    if constexpr (sizeof(T) == 4) out_.u32(static_cast<std::uint32_t>(v));
    if constexpr (sizeof(T) == 8) out_.u64(static_cast<std::uint64_t>(v));
  }
  void put(const MacAddr& mac) { out_.raw(mac); }

  BufWriter& out_;
};

class Reader {
 public:
  static constexpr bool kReads = true;

  explicit Reader(std::span<const std::uint8_t> in) : in_(in) {}

  template <class... F>
  void operator()(F&... fields) {
    (get(fields), ...);
  }
  void pad(std::size_t n) { in_.skip(n); }
  void text(std::string& s, std::size_t width) {
    const auto field = in_.raw(width);
    const auto end = std::find(field.begin(), field.end(), std::uint8_t{0});
    s.assign(field.begin(), end);
  }
  void bytes(std::vector<std::uint8_t>& v) {
    const auto rest = in_.raw(in_.remaining());
    v.assign(rest.begin(), rest.end());
  }
  template <class T>
  void list(std::vector<T>& items) {
    while (!failed() && in_.remaining() > 0) walk(*this, items.emplace_back());
  }
  template <class F>
  void sized(std::size_t extra, F&& scope) {
    const std::size_t len = in_.u16();
    if (len < extra) return fail();
    Reader inner(in_.raw(len - extra));
    if (failed()) return;
    scope(inner);
    if (inner.failed()) fail();
  }

  void fail() { in_.fail(); }
  [[nodiscard]] bool failed() const { return in_.failed(); }
  [[nodiscard]] std::size_t remaining() const { return in_.remaining(); }

 private:
  template <Scalar T>
  void get(T& v) {
    if constexpr (sizeof(T) == 1) v = static_cast<T>(in_.u8());
    if constexpr (sizeof(T) == 2) v = static_cast<T>(in_.u16());
    if constexpr (sizeof(T) == 4) v = static_cast<T>(in_.u32());
    if constexpr (sizeof(T) == 8) v = static_cast<T>(in_.u64());
  }
  void get(MacAddr& mac) {
    const auto b = in_.raw(mac.size());
    std::copy(b.begin(), b.end(), mac.begin());
  }

  BufReader in_;
};

template <class T>
constexpr std::size_t size_of(const T& value) {
  Sizer sizer;
  walk(sizer, value);
  return sizer.size();
}

template <class T>
std::vector<std::uint8_t> to_bytes(const T& value) {
  std::vector<std::uint8_t> out;
  out.reserve(size_of(value));
  BufWriter w(out);
  Writer writer(w);
  walk(writer, value);
  return out;
}

/// Parse `value` from the front of `in`; trailing bytes are ignored.
template <class T>
bool read(std::span<const std::uint8_t> in, T& value) {
  Reader reader(in);
  walk(reader, value);
  return !reader.failed();
}

/// Emplace the first alternative of `v` whose type satisfies `is` (called
/// with a std::type_identity of each alternative); false when none does.
template <class V, std::size_t I = 0>
bool emplace_where(V& v, const auto& is) {
  if constexpr (I == std::variant_size_v<V>) {
    return false;
  } else if (is(std::type_identity<std::variant_alternative_t<I, V>>{})) {
    v.template emplace<I>();
    return true;
  } else {
    return emplace_where<V, I + 1>(v, is);
  }
}

}  // namespace tango::of::wire
