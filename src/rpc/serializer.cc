#include "src/rpc/serializer.h"

#include <algorithm>
#include <numeric>

#include "src/common/logging.h"

namespace proteus {

std::size_t VarU64Size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

void WireWriter::AppendRaw(const void* data, std::size_t n) {
  if (n == 0) {
    return;
  }
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

void WireWriter::VarU64(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void WireWriter::Blob(std::span<const std::uint8_t> bytes) {
  U32(static_cast<std::uint32_t>(bytes.size()));
  AppendRaw(bytes.data(), bytes.size());
}

void WireWriter::Str(const std::string& s) {
  U32(static_cast<std::uint32_t>(s.size()));
  AppendRaw(s.data(), s.size());
}

void WireWriter::FloatArray(std::span<const float> values) {
  U32(static_cast<std::uint32_t>(values.size()));
  AppendRaw(values.data(), values.size() * sizeof(float));
}

void WireWriter::I32Array(std::span<const std::int32_t> values) {
  U32(static_cast<std::uint32_t>(values.size()));
  AppendRaw(values.data(), values.size() * sizeof(std::int32_t));
}

bool WireReader::Take(void* out, std::size_t n) {
  if (failed_ || data_.size() - offset_ < n) {
    failed_ = true;
    return false;
  }
  if (n == 0) {
    return true;  // `out` may be null (an empty vector's data()).
  }
  std::memcpy(out, data_.data() + offset_, n);
  offset_ += n;
  return true;
}

std::optional<std::uint8_t> WireReader::U8() {
  std::uint8_t v = 0;
  if (!Take(&v, sizeof(v))) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::uint32_t> WireReader::U32() {
  std::uint32_t v = 0;
  if (!Take(&v, sizeof(v))) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::uint64_t> WireReader::U64() {
  std::uint64_t v = 0;
  if (!Take(&v, sizeof(v))) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::int32_t> WireReader::I32() {
  std::int32_t v = 0;
  if (!Take(&v, sizeof(v))) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::int64_t> WireReader::I64() {
  std::int64_t v = 0;
  if (!Take(&v, sizeof(v))) {
    return std::nullopt;
  }
  return v;
}

std::optional<double> WireReader::F64() {
  double v = 0;
  if (!Take(&v, sizeof(v))) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::string> WireReader::Str() {
  const auto len = U32();
  if (!len.has_value() || *len > kMaxElements) {
    failed_ = true;
    return std::nullopt;
  }
  std::string s(*len, '\0');
  if (!Take(s.data(), *len)) {
    return std::nullopt;
  }
  return s;
}

std::optional<std::vector<float>> WireReader::FloatArray() {
  const auto len = U32();
  if (!len.has_value() || *len > kMaxElements) {
    failed_ = true;
    return std::nullopt;
  }
  std::vector<float> v(*len);
  if (!Take(v.data(), static_cast<std::size_t>(*len) * sizeof(float))) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::vector<std::int32_t>> WireReader::I32Array() {
  const auto len = U32();
  if (!len.has_value() || *len > kMaxElements) {
    failed_ = true;
    return std::nullopt;
  }
  std::vector<std::int32_t> v(*len);
  if (!Take(v.data(), static_cast<std::size_t>(*len) * sizeof(std::int32_t))) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::uint64_t> WireReader::VarU64() {
  std::uint64_t result = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    std::uint8_t byte = 0;
    if (!Take(&byte, 1)) {
      return std::nullopt;
    }
    const std::uint64_t bits = byte & 0x7F;
    if (shift == 63 && bits > 1) {
      failed_ = true;  // Tenth byte would overflow 64 bits.
      return std::nullopt;
    }
    result |= bits << shift;
    if ((byte & 0x80) == 0) {
      return result;
    }
  }
  failed_ = true;  // Continuation bit set past 10 bytes.
  return std::nullopt;
}

std::optional<std::vector<std::uint8_t>> WireReader::Blob() {
  const auto len = U32();
  if (!len.has_value() || *len > kMaxElements) {
    failed_ = true;
    return std::nullopt;
  }
  std::vector<std::uint8_t> v(*len);
  if (!Take(v.data(), *len)) {
    return std::nullopt;
  }
  return v;
}

bool WireReader::RawFloats(std::size_t n, std::vector<float>& out) {
  const std::size_t old = out.size();
  out.resize(old + n);
  if (!Take(out.data() + old, n * sizeof(float))) {
    out.resize(old);
    return false;
  }
  return true;
}

std::size_t DeltaBatchEncodedBytes(std::span<const std::uint64_t> sorted_keys,
                                   std::span<const std::uint32_t> cols) {
  PROTEUS_CHECK_EQ(sorted_keys.size(), cols.size());
  std::size_t bytes = 1 + VarU64Size(sorted_keys.size());
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < sorted_keys.size(); ++i) {
    const std::uint64_t delta = i == 0 ? sorted_keys[i] : sorted_keys[i] - prev;
    prev = sorted_keys[i];
    bytes += VarU64Size(delta) + VarU64Size(cols[i]) +
             static_cast<std::size_t>(cols[i]) * sizeof(float);
  }
  return bytes;
}

std::vector<std::uint8_t> EncodeDeltaBatch(std::span<const DeltaRow> rows) {
  // Stable order by key keeps duplicate coalescing deterministic: equal
  // keys are summed in input order.
  std::vector<std::size_t> order(rows.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&rows](std::size_t a, std::size_t b) {
    return rows[a].key < rows[b].key;
  });

  // Pre-compute the post-coalescing row set for the exact-size reserve.
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> cols;
  keys.reserve(rows.size());
  cols.reserve(rows.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const DeltaRow& r = rows[order[i]];
    if (!keys.empty() && keys.back() == r.key) {
      PROTEUS_CHECK_EQ(static_cast<std::size_t>(cols.back()), r.values.size())
          << "duplicate rows for key " << r.key << " disagree on width";
      continue;
    }
    keys.push_back(r.key);
    cols.push_back(static_cast<std::uint32_t>(r.values.size()));
  }

  WireWriter w;
  w.Reserve(DeltaBatchEncodedBytes(keys, cols));
  w.U8(kDeltaBatchVersion);
  w.VarU64(keys.size());
  std::vector<float> scratch;
  std::uint64_t prev = 0;
  std::size_t i = 0;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    w.VarU64(k == 0 ? keys[k] : keys[k] - prev);
    prev = keys[k];
    w.VarU64(cols[k]);
    // Count the duplicate run for this key.
    std::size_t run = 1;
    while (i + run < order.size() && rows[order[i + run]].key == keys[k]) {
      ++run;
    }
    if (run == 1) {
      w.RawFloats(rows[order[i]].values);
    } else {
      scratch.assign(rows[order[i]].values.begin(), rows[order[i]].values.end());
      for (std::size_t d = 1; d < run; ++d) {
        const std::span<const float> v = rows[order[i + d]].values;
        for (std::size_t c = 0; c < scratch.size(); ++c) {
          scratch[c] += v[c];
        }
      }
      w.RawFloats(scratch);
    }
    i += run;
  }
  return w.Take();
}

std::optional<DecodedDeltaBatch> DecodeDeltaBatch(std::span<const std::uint8_t> buf) {
  WireReader r(buf);
  const auto version = r.U8();
  if (!version.has_value() || *version != kDeltaBatchVersion) {
    return std::nullopt;
  }
  const auto count = r.VarU64();
  if (!count.has_value() || *count > WireReader::kMaxElements) {
    return std::nullopt;
  }
  DecodedDeltaBatch batch;
  batch.keys.reserve(static_cast<std::size_t>(*count));
  batch.offsets.reserve(static_cast<std::size_t>(*count) + 1);
  batch.offsets.push_back(0);
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < *count; ++i) {
    const auto delta = r.VarU64();
    const auto cols = r.VarU64();
    if (!delta.has_value() || !cols.has_value() || *cols > WireReader::kMaxElements) {
      return std::nullopt;
    }
    std::uint64_t key = *delta;
    if (i > 0) {
      if (*delta == 0 || prev + *delta < prev) {
        return std::nullopt;  // Non-ascending or overflowing key sequence.
      }
      key = prev + *delta;
    }
    prev = key;
    if (!r.RawFloats(static_cast<std::size_t>(*cols), batch.values)) {
      return std::nullopt;
    }
    batch.keys.push_back(key);
    batch.offsets.push_back(batch.values.size());
  }
  if (!r.AtEnd()) {
    return std::nullopt;  // Trailing garbage.
  }
  return batch;
}

}  // namespace proteus
