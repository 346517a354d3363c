// CacheCodec<T> — how a StatCache value of type T is stored on disk.
//
// The primary template has no codec: such values stay in memory only. A
// specialization next to the type makes every StatCache::GetOrCompute<T>
// read through and write behind the disk tier by supplying
//
//   static void Encode(const T& value, RecordBuilder& rec);
//   static std::optional<T> Decode(RecordParser& rec);  // nullopt = miss
//
// A trait rather than ADL, so that std types (scalars, POD vectors) have
// codecs too. Values serialize with RecordBuilder / RecordParser
// (journal.h); a struct usually just lists its fields for FieldCodec.

#ifndef DPKRON_COMMON_CACHE_CODEC_H_
#define DPKRON_COMMON_CACHE_CODEC_H_

#include <concepts>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/journal.h"
#include "src/common/rng.h"

namespace dpkron {

template <typename T>
struct CacheCodec {};

template <typename T>
concept DurableCacheValue =
    requires(const T& value, RecordBuilder& builder, RecordParser& parser) {
      CacheCodec<T>::Encode(value, builder);
      { CacheCodec<T>::Decode(parser) } -> std::same_as<std::optional<T>>;
    };

// Arithmetic scalars: their raw bytes (a uint64_t is RecordBuilder::U64).
// A bool travels as a U32 0/1, like the flags of every other record.
template <typename T>
  requires std::is_arithmetic_v<T>
struct CacheCodec<T> {
  using Wire = std::conditional_t<std::is_same_v<T, bool>, uint32_t, T>;
  static void Encode(T value, RecordBuilder& rec) {
    rec.Pod(static_cast<Wire>(value));
  }
  static std::optional<T> Decode(RecordParser& rec) {
    const Wire value = rec.Pod<Wire>();
    if (!rec.ok()) return std::nullopt;
    return static_cast<T>(value);
  }
};

// "POD" here admits std::pair (not trivially copyable only because its
// assignment operator is user-provided): trivially copy-constructible +
// trivially destructible is what memcpy round-tripping actually needs.
template <typename T>
inline constexpr bool kIsPodVectorElement =
    std::is_trivially_copy_constructible_v<T> &&
    std::is_trivially_destructible_v<T>;

// Flat POD vectors (degrees, triangle counts, frontier pairs, panel
// series): one length-checked byte field. A byte count that is not a
// multiple of the element size is a miss, not a partial vector.
template <typename T>
  requires kIsPodVectorElement<T>
struct CacheCodec<std::vector<T>> {
  static void Encode(const std::vector<T>& values, RecordBuilder& rec) {
    rec.Str(std::string_view(reinterpret_cast<const char*>(values.data()),
                             values.size() * sizeof(T)));
  }
  static std::optional<std::vector<T>> Decode(RecordParser& rec) {
    const std::string bytes = rec.Str();
    if (!rec.ok() || bytes.size() % sizeof(T) != 0) return std::nullopt;
    std::vector<T> values(bytes.size() / sizeof(T));
    if (!bytes.empty()) {
      std::memcpy(static_cast<void*>(values.data()), bytes.data(),
                  bytes.size());
    }
    return values;
  }
};

// The state a randomized computation's entry carries so a hit can replay
// the stream advance. Field-wise, not raw struct bytes: padding must
// never reach the checksummed file.
template <>
struct CacheCodec<Rng::State> {
  static void Encode(const Rng::State& state, RecordBuilder& rec) {
    for (uint64_t word : state.s) rec.U64(word);
    rec.U32(state.have_gaussian ? 1 : 0);
    rec.Double(state.spare_gaussian);
  }
  static std::optional<Rng::State> Decode(RecordParser& rec) {
    Rng::State state;
    for (uint64_t& word : state.s) word = rec.U64();
    state.have_gaussian = rec.U32() != 0;
    state.spare_gaussian = rec.Double();
    if (!rec.ok()) return std::nullopt;
    return state;
  }
};

// The codec of a struct whose listed fields are durable: each field by
// its own codec, in the order listed. Specialize as
//
//   template <>
//   struct CacheCodec<S> : FieldCodec<S, &S::first, &S::second> {};
template <typename T, auto... kFields>
struct FieldCodec {
  static void Encode(const T& value, RecordBuilder& rec) {
    (EncodeField(value.*kFields, rec), ...);
  }
  static std::optional<T> Decode(RecordParser& rec) {
    T value;
    if (!(DecodeField(rec, value.*kFields) && ...)) return std::nullopt;
    return value;
  }

 private:
  template <typename F>
  static void EncodeField(const F& field, RecordBuilder& rec) {
    CacheCodec<F>::Encode(field, rec);
  }
  template <typename F>
  static bool DecodeField(RecordParser& rec, F& field) {
    std::optional<F> decoded = CacheCodec<F>::Decode(rec);
    if (decoded.has_value()) field = std::move(*decoded);
    return decoded.has_value();
  }
};

// A durable value's entry bytes, and back. Decoding fails on a short,
// long or malformed record: the disk tier treats that as a miss.
template <DurableCacheValue T>
std::string EncodeCacheValue(const T& value) {
  RecordBuilder rec;
  CacheCodec<T>::Encode(value, rec);
  return rec.str();
}

template <DurableCacheValue T>
std::optional<T> DecodeCacheValue(std::string_view bytes) {
  RecordParser rec(bytes);
  std::optional<T> value = CacheCodec<T>::Decode(rec);
  if (!rec.done()) return std::nullopt;
  return value;
}

}  // namespace dpkron

#endif  // DPKRON_COMMON_CACHE_CODEC_H_
