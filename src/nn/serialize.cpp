#include "nn/serialize.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>

#include "nn/parameter.h"

namespace meanet::nn {

namespace {

constexpr char kMagic[4] = {'M', 'E', 'A', 'N'};
constexpr std::uint32_t kVersion = 1;

// Bounds a hostile file/frame cannot widen: a tensor name or shape
// beyond these is rejected before any allocation happens.
constexpr std::uint32_t kMaxNameLen = 1u << 12;
// Shape itself supports at most rank 4, so reject anything wider here
// with the serializer's own error before Shape's constructor is reached.
constexpr std::uint32_t kMaxRank = 4;
constexpr std::int32_t kMaxDim = 1 << 24;

/// All serializable tensors of a layer, keyed by unique name.
std::map<std::string, Tensor*> named_tensors(Layer& layer) {
  std::map<std::string, Tensor*> out;
  auto insert = [&out](const std::string& name, Tensor* tensor) {
    if (!out.emplace(name, tensor).second) {
      throw std::logic_error("serialize: duplicate tensor name '" + name + "'");
    }
  };
  for (Parameter* p : layer.parameters()) insert(p->name, &p->value);
  for (const NamedTensor& s : layer.state()) insert(s.name, s.tensor);
  return out;
}

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!is) throw std::runtime_error("serialize: truncated file");
  return value;
}

/// Validates one decoded tensor header (rank already read, dims being
/// read by `next_dim`) and returns the checked element count. Shared by
/// the file loader and the wire decoder so hostile sizes fail the same
/// way everywhere: bounded rank, non-negative bounded dims, and an
/// overflow-checked product that must fit in `available_bytes` as
/// float32 data.
std::int64_t checked_numel(std::uint32_t rank, const std::function<std::int32_t()>& next_dim,
                           std::vector<int>& dims, std::uint64_t available_bytes,
                           const char* who) {
  if (rank > kMaxRank) {
    throw std::runtime_error(std::string(who) + ": tensor rank " + std::to_string(rank) +
                             " exceeds the limit of " + std::to_string(kMaxRank));
  }
  dims.clear();
  dims.reserve(rank);
  // Overflow-safe product bound: the data must fit in the bytes that
  // are actually present, so any dim pushing past that is hostile.
  const std::int64_t limit = static_cast<std::int64_t>(available_bytes / sizeof(float));
  std::int64_t numel = 1;
  for (std::uint32_t i = 0; i < rank; ++i) {
    const std::int32_t d = next_dim();
    if (d < 0 || d > kMaxDim) {
      throw std::runtime_error(std::string(who) + ": hostile tensor dim " + std::to_string(d));
    }
    if (d > 0 && numel > limit / d) {
      throw std::runtime_error(std::string(who) +
                               ": tensor data exceeds the bytes present");
    }
    dims.push_back(d);
    numel *= d;
  }
  if (numel > limit) {
    throw std::runtime_error(std::string(who) + ": tensor data exceeds the bytes present");
  }
  return numel;
}

}  // namespace

void ByteReader::read_bytes(void* dst, std::size_t n) {
  if (n > remaining()) {
    throw std::runtime_error("serialize: truncated buffer (need " + std::to_string(n) +
                             " bytes, have " + std::to_string(remaining()) + ")");
  }
  std::memcpy(dst, data_ + pos_, n);
  pos_ += n;
}

void append_tensor(std::vector<std::uint8_t>& out, const Tensor& t) {
  auto append_pod = [&out](const auto& value) {
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(&value);
    out.insert(out.end(), bytes, bytes + sizeof(value));
  };
  const auto& dims = t.shape().dims();
  append_pod(static_cast<std::uint32_t>(dims.size()));
  for (int d : dims) append_pod(static_cast<std::int32_t>(d));
  const auto* data = reinterpret_cast<const std::uint8_t*>(t.data());
  out.insert(out.end(), data, data + sizeof(float) * static_cast<std::size_t>(t.numel()));
}

Tensor read_tensor(ByteReader& in) {
  const auto rank = in.read<std::uint32_t>();
  std::vector<int> dims;
  const std::int64_t numel =
      checked_numel(rank, [&in] { return in.read<std::int32_t>(); }, dims,
                    in.remaining(), "read_tensor");
  Tensor out{Shape(dims)};
  (void)numel;
  in.read_bytes(out.data(), sizeof(float) * static_cast<std::size_t>(out.numel()));
  return out;
}

void save_model(Layer& layer, const std::string& path) {
  const auto tensors = named_tensors(layer);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("save_model: cannot open '" + path + "'");
  os.write(kMagic, sizeof(kMagic));
  write_pod(os, kVersion);
  write_pod(os, static_cast<std::uint64_t>(tensors.size()));
  for (const auto& [name, tensor] : tensors) {
    write_pod(os, static_cast<std::uint32_t>(name.size()));
    os.write(name.data(), static_cast<std::streamsize>(name.size()));
    const auto& dims = tensor->shape().dims();
    write_pod(os, static_cast<std::uint32_t>(dims.size()));
    for (int d : dims) write_pod(os, static_cast<std::int32_t>(d));
    os.write(reinterpret_cast<const char*>(tensor->data()),
             static_cast<std::streamsize>(sizeof(float) * static_cast<std::size_t>(tensor->numel())));
  }
  if (!os) throw std::runtime_error("save_model: write failed for '" + path + "'");
}

void load_model(Layer& layer, const std::string& path) {
  auto tensors = named_tensors(layer);
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("load_model: cannot open '" + path + "'");
  // File size bounds every variable-length field below: a hostile
  // header cannot make us allocate more than the file could possibly
  // hold (these bytes may have arrived off a socket — see src/wire).
  is.seekg(0, std::ios::end);
  const std::uint64_t file_size = static_cast<std::uint64_t>(is.tellg());
  is.seekg(0, std::ios::beg);
  auto bytes_left = [&is, file_size]() -> std::uint64_t {
    const auto pos = static_cast<std::uint64_t>(is.tellg());
    return pos <= file_size ? file_size - pos : 0;
  };
  char magic[4];
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("load_model: bad magic in '" + path + "'");
  }
  const auto version = read_pod<std::uint32_t>(is);
  if (version != kVersion) {
    throw std::runtime_error("load_model: unsupported version " + std::to_string(version));
  }
  const auto count = read_pod<std::uint64_t>(is);
  if (count != tensors.size()) {
    throw std::runtime_error("load_model: file has " + std::to_string(count) +
                             " tensors, model expects " + std::to_string(tensors.size()));
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto name_len = read_pod<std::uint32_t>(is);
    if (name_len > kMaxNameLen || name_len > bytes_left()) {
      throw std::runtime_error("load_model: hostile name length " + std::to_string(name_len));
    }
    std::string name(name_len, '\0');
    is.read(name.data(), name_len);
    if (!is) throw std::runtime_error("load_model: truncated name");
    const auto rank = read_pod<std::uint32_t>(is);
    std::vector<int> dims;
    (void)checked_numel(rank, [&is] { return read_pod<std::int32_t>(is); }, dims, bytes_left(),
                        "load_model");
    const auto it = tensors.find(name);
    if (it == tensors.end()) {
      throw std::runtime_error("load_model: unknown tensor '" + name + "'");
    }
    Tensor* dst = it->second;
    if (Shape(dims) != dst->shape()) {
      throw std::runtime_error("load_model: shape mismatch for '" + name + "': file " +
                               Shape(dims).to_string() + " vs model " +
                               dst->shape().to_string());
    }
    is.read(reinterpret_cast<char*>(dst->data()),
            static_cast<std::streamsize>(sizeof(float) * static_cast<std::size_t>(dst->numel())));
    if (!is) throw std::runtime_error("load_model: truncated data for '" + name + "'");
  }
}

std::int64_t serialized_size(Layer& layer) {
  std::int64_t bytes = 4 + 4 + 8;  // magic + version + count
  for (const auto& [name, tensor] : named_tensors(layer)) {
    bytes += 4 + static_cast<std::int64_t>(name.size());
    bytes += 4 + 4 * tensor->shape().rank();
    bytes += 4 * tensor->numel();
  }
  return bytes;
}

}  // namespace meanet::nn
