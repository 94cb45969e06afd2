#include "vct/index_io.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "util/fault_injection.h"

namespace tkc {

namespace {

constexpr uint32_t kVctMagic = 0x56434b54;  // "TKCV" little-endian
constexpr uint32_t kPhcMagic = 0x50434b54;  // "TKCP"
constexpr uint32_t kVersion = 1;

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

// Sequential reader with bounds checking.
class Reader {
 public:
  explicit Reader(const std::string& bytes) : bytes_(bytes) {}

  bool ReadU32(uint32_t* v) {
    if (pos_ + 4 > bytes_.size()) return false;
    std::memcpy(v, bytes_.data() + pos_, 4);
    pos_ += 4;
    return true;
  }
  bool ReadU64(uint64_t* v) {
    if (pos_ + 8 > bytes_.size()) return false;
    std::memcpy(v, bytes_.data() + pos_, 8);
    pos_ += 8;
    return true;
  }
  bool ReadBytes(uint64_t length, std::string* out) {
    if (length > bytes_.size() || pos_ + length > bytes_.size()) return false;
    out->assign(bytes_, pos_, static_cast<size_t>(length));
    pos_ += static_cast<size_t>(length);
    return true;
  }
  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  const std::string& bytes_;
  size_t pos_ = 0;
};

Status ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open '" + path + "': " +
                           std::strerror(errno));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::IOError("read failure on '" + path + "'");
  *out = buf.str();
  return Status::OK();
}

/// The `index_io.corrupt_load` fault: drops the file's trailing byte before
/// parsing, as if the read raced a torn write. Truncation (rather than a
/// flipped payload byte) guarantees the parsers *detect* it — every format
/// here is length-prefixed, so a missing byte always parses as Corruption
/// instead of silently producing a valid-but-different index.
void MaybeCorruptLoadedBytes(std::string* bytes) {
  if (!bytes->empty() && FaultFires(kFaultIndexIoCorruptLoad)) {
    bytes->pop_back();
  }
}

Status WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot create '" + path + "': " +
                           std::strerror(errno));
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) return Status::IOError("write failure on '" + path + "'");
  return Status::OK();
}

}  // namespace

std::string SerializeVctIndex(const VertexCoreTimeIndex& index) {
  std::string out;
  PutU32(&out, kVctMagic);
  PutU32(&out, kVersion);
  PutU32(&out, index.range().start);
  PutU32(&out, index.range().end);
  PutU32(&out, index.num_vertices());
  PutU64(&out, index.size());
  for (VertexId v = 0; v < index.num_vertices(); ++v) {
    auto entries = index.EntriesOf(v);
    PutU32(&out, static_cast<uint32_t>(entries.size()));
    for (const VctEntry& e : entries) {
      PutU32(&out, e.start);
      PutU32(&out, e.core_time);
    }
  }
  return out;
}

StatusOr<VertexCoreTimeIndex> DeserializeVctIndex(const std::string& bytes) {
  Reader reader(bytes);
  uint32_t magic, version, rs, re, num_vertices;
  uint64_t total;
  if (!reader.ReadU32(&magic) || magic != kVctMagic) {
    return Status::Corruption("bad VCT magic");
  }
  if (!reader.ReadU32(&version) || version != kVersion) {
    return Status::Corruption("unsupported VCT version");
  }
  if (!reader.ReadU32(&rs) || !reader.ReadU32(&re) ||
      !reader.ReadU32(&num_vertices) || !reader.ReadU64(&total)) {
    return Status::Corruption("truncated VCT header");
  }
  if (rs < 1 || rs > re || re == kInfTime) {
    return Status::Corruption("invalid VCT range");
  }
  std::vector<std::pair<VertexId, VctEntry>> emissions;
  emissions.reserve(total);
  for (VertexId v = 0; v < num_vertices; ++v) {
    uint32_t count;
    if (!reader.ReadU32(&count)) return Status::Corruption("truncated VCT");
    Timestamp prev_start = 0;
    Timestamp prev_ct = 0;
    for (uint32_t i = 0; i < count; ++i) {
      VctEntry e;
      if (!reader.ReadU32(&e.start) || !reader.ReadU32(&e.core_time)) {
        return Status::Corruption("truncated VCT entries");
      }
      if (e.start < rs || e.start > re) {
        return Status::Corruption("VCT entry start outside range");
      }
      if (i > 0 && (e.start <= prev_start || e.core_time <= prev_ct)) {
        return Status::Corruption("VCT entries not strictly increasing");
      }
      if (e.core_time != kInfTime &&
          (e.core_time < e.start || e.core_time > re)) {
        return Status::Corruption("VCT core time outside range");
      }
      prev_start = e.start;
      prev_ct = e.core_time;
      emissions.push_back({v, e});
    }
  }
  if (!reader.AtEnd()) return Status::Corruption("trailing bytes in VCT");
  if (emissions.size() != total) {
    return Status::Corruption("VCT entry count mismatch");
  }
  return VertexCoreTimeIndex::FromEmissions(num_vertices, Window{rs, re},
                                            emissions);
}

std::string SerializePhcIndex(const PhcIndex& index) {
  std::string out;
  PutU32(&out, kPhcMagic);
  PutU32(&out, kVersion);
  PutU32(&out, index.range().start);
  PutU32(&out, index.range().end);
  PutU32(&out, index.complete() ? 1 : 0);
  PutU32(&out, index.max_k());
  for (uint32_t k = 1; k <= index.max_k(); ++k) {
    std::string slice = SerializeVctIndex(index.Slice(k));
    PutU64(&out, slice.size());
    out += slice;
  }
  return out;
}

StatusOr<PhcIndex> DeserializePhcIndex(const std::string& bytes) {
  Reader reader(bytes);
  uint32_t magic, version, rs, re, complete, max_k;
  if (!reader.ReadU32(&magic) || magic != kPhcMagic) {
    return Status::Corruption("bad PHC magic");
  }
  if (!reader.ReadU32(&version) || version != kVersion) {
    return Status::Corruption("unsupported PHC version");
  }
  if (!reader.ReadU32(&rs) || !reader.ReadU32(&re) ||
      !reader.ReadU32(&complete) || !reader.ReadU32(&max_k)) {
    return Status::Corruption("truncated PHC header");
  }
  if (rs < 1 || rs > re || re == kInfTime || complete > 1) {
    return Status::Corruption("invalid PHC header fields");
  }
  // Bound the file-controlled slice count before reserving: every slice
  // costs at least its 8-byte length prefix, so a max_k beyond that is a
  // lie about the payload and would otherwise turn into a huge reserve().
  if (static_cast<uint64_t>(max_k) * 8 > bytes.size()) {
    return Status::Corruption("PHC slice count exceeds payload");
  }
  std::vector<VertexCoreTimeIndex> slices;
  slices.reserve(max_k);
  for (uint32_t k = 1; k <= max_k; ++k) {
    uint64_t length;
    if (!reader.ReadU64(&length)) {
      return Status::Corruption("truncated PHC slice header");
    }
    std::string slice_bytes;
    if (!reader.ReadBytes(length, &slice_bytes)) {
      return Status::Corruption("truncated PHC slice");
    }
    auto slice = DeserializeVctIndex(slice_bytes);
    if (!slice.ok()) return slice.status();
    slices.push_back(std::move(slice).value());
  }
  if (!reader.AtEnd()) return Status::Corruption("trailing bytes in PHC");
  auto index =
      PhcIndex::FromSlices(Window{rs, re}, complete == 1, std::move(slices));
  if (!index.ok()) {
    // Structurally valid slices that disagree with each other are
    // corruption from the reader's point of view.
    return Status::Corruption(index.status().message());
  }
  return index;
}

Status SavePhcIndex(const PhcIndex& index, const std::string& path) {
  return WriteFile(path, SerializePhcIndex(index));
}

StatusOr<PhcIndex> LoadPhcIndex(const std::string& path) {
  std::string bytes;
  TKC_RETURN_IF_ERROR(ReadFile(path, &bytes));
  MaybeCorruptLoadedBytes(&bytes);
  return DeserializePhcIndex(bytes);
}

}  // namespace tkc
