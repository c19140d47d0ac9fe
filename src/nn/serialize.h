// Binary model serialization — the mechanism behind the paper's
// "download the main block (and ClassDict) to the edge" (Alg. 1 step 4).
//
// Format (little-endian):
//   magic "MEAN" | version u32 | entry count u64 |
//   per entry: name length u32 | name bytes | rank u32 | dims i32[] |
//              float32 data
// Entries are the layer's parameters plus its state() tensors (BatchNorm
// running statistics), so a loaded model reproduces the exact inference
// behaviour of the saved one. Loading matches entries by name and
// validates shapes; unknown or missing names are errors.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "nn/layer.h"

namespace meanet::nn {

/// Bounds-checked cursor over an untrusted byte buffer (a frame payload
/// off a socket, a file slice). Every read validates against the
/// remaining length and throws std::runtime_error instead of reading
/// past the end — the load/decode paths must never turn hostile sizes
/// into UB or unbounded allocations.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }
  std::size_t position() const { return pos_; }

  void read_bytes(void* dst, std::size_t n);

  template <typename T>
  T read() {
    static_assert(std::is_trivially_copyable_v<T>, "pod reads only");
    T value{};
    read_bytes(&value, sizeof(T));
    return value;
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---- Tensor wire encoding ----
//
// The single tensor byte format of the project (shared by the model
// files above and the wire protocol in src/wire — do NOT invent a
// second one): rank u32 | dims i32[rank] | float32 data, little-endian.
// Decoding is hardened for untrusted input: rank and dims are bounded,
// the element count is overflow-checked and validated against the
// bytes actually present before anything is allocated.

/// Appends the wire encoding of `t` to `out`.
void append_tensor(std::vector<std::uint8_t>& out, const Tensor& t);

/// Decodes one tensor from `in`, validating every header field against
/// the bytes remaining. Throws std::runtime_error on malformed input.
Tensor read_tensor(ByteReader& in);

/// Serializes parameters + state of `layer` (recursing through
/// composites) to `path`. Throws std::runtime_error on I/O failure.
void save_model(Layer& layer, const std::string& path);

/// Loads a file written by save_model into `layer`. Every entry in the
/// file must match a tensor in the layer by name and shape, and every
/// tensor in the layer must be present in the file.
void load_model(Layer& layer, const std::string& path);

/// Byte size the serialized form of `layer` will occupy (useful to price
/// the model-download communication cost).
std::int64_t serialized_size(Layer& layer);

}  // namespace meanet::nn
