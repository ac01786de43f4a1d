#include "src/dataset/ingest.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <limits>

#include "src/common/math_utils.h"

namespace odyssey {
namespace {

// Matches file_io.cc's headered format.
constexpr char kOdsyMagic[4] = {'O', 'D', 'S', 'Y'};
constexpr uint32_t kOdsyVersion = 1;
constexpr uint64_t kOdsyHeaderBytes = 16;

// Sanity cap on a per-vector dimension header: anything above this is a
// corrupt or hostile file, not a data series (the paper's longest series is
// 256 points; embedding archives top out in the low thousands).
constexpr uint32_t kMaxVectorDim = 1u << 20;

std::string LowerExtension(const std::string& path) {
  const size_t dot = path.find_last_of('.');
  const size_t slash = path.find_last_of('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return "";
  }
  std::string ext = path.substr(dot + 1);
  for (char& c : ext) c = static_cast<char>(std::tolower(c));
  return ext;
}

}  // namespace

const char* DataFormatToString(DataFormat format) {
  switch (format) {
    case DataFormat::kAuto: return "auto";
    case DataFormat::kRawFloat: return "raw-float";
    case DataFormat::kFvecs: return "fvecs";
    case DataFormat::kBvecs: return "bvecs";
    case DataFormat::kOdyssey: return "odyssey";
  }
  return "?";
}

DataFormat FormatFromPath(const std::string& path) {
  const std::string ext = LowerExtension(path);
  if (ext == "fvecs") return DataFormat::kFvecs;
  if (ext == "bvecs") return DataFormat::kBvecs;
  if (ext == "bin" || ext == "odsy") return DataFormat::kOdyssey;
  return DataFormat::kRawFloat;
}

SeriesIngestor::SeriesIngestor(MappedFile file, const IngestOptions& options)
    : file_(std::move(file)), options_(options) {}

StatusOr<SeriesIngestor> SeriesIngestor::Open(const std::string& path,
                                              const IngestOptions& options) {
  StatusOr<MappedFile> file = MappedFile::Open(path, options.io_mode);
  if (!file.ok()) return file.status();
  SeriesIngestor ingestor(std::move(*file), options);
  ingestor.format_ = options.format == DataFormat::kAuto
                         ? FormatFromPath(path)
                         : options.format;
  Status validated = ingestor.Validate();
  if (!validated.ok()) return validated;
  return ingestor;
}

Status SeriesIngestor::Validate() {
  const std::string& path = file_.path();
  const uint64_t size = file_.size();
  size_t total_in_file = 0;
  switch (format_) {
    case DataFormat::kRawFloat: {
      if (options_.length == 0) {
        return Status::InvalidArgument(
            "raw-float archives are headerless; IngestOptions.length is "
            "required: " + path);
      }
      length_ = options_.length;
      record_bytes_ = static_cast<uint64_t>(length_) * sizeof(float);
      if (size % record_bytes_ != 0) {
        return Status::InvalidArgument(
            "file size is not a multiple of the series length: " + path);
      }
      total_in_file = static_cast<size_t>(size / record_bytes_);
      break;
    }
    case DataFormat::kFvecs:
    case DataFormat::kBvecs: {
      const uint64_t elem =
          format_ == DataFormat::kFvecs ? sizeof(float) : sizeof(uint8_t);
      if (size < sizeof(uint32_t)) {
        return Status::InvalidArgument(
            "file too small for a vector dimension header: " + path);
      }
      uint32_t dim = 0;
      Status read = file_.ReadAt(0, &dim, sizeof(dim));
      if (!read.ok()) return read;
      if (dim == 0 || dim > kMaxVectorDim) {
        return Status::InvalidArgument(
            "implausible vector dimension header (" + std::to_string(dim) +
            ") in " + path);
      }
      if (options_.length != 0 && options_.length != dim) {
        return Status::InvalidArgument(
            "requested length " + std::to_string(options_.length) +
            " but the file's vectors have dimension " + std::to_string(dim) +
            ": " + path);
      }
      length_ = dim;
      record_bytes_ = sizeof(uint32_t) + static_cast<uint64_t>(dim) * elem;
      if (size % record_bytes_ != 0) {
        return Status::InvalidArgument(
            "file size is not a multiple of the vector record size: " + path);
      }
      total_in_file = static_cast<size_t>(size / record_bytes_);
      break;
    }
    case DataFormat::kOdyssey: {
      if (size < kOdsyHeaderBytes) {
        return Status::IoError("short header read: " + path);
      }
      char magic[4];
      uint32_t version = 0, count = 0, length32 = 0;
      Status read = file_.ReadAt(0, magic, 4);
      if (read.ok()) read = file_.ReadAt(4, &version, sizeof(version));
      if (read.ok()) read = file_.ReadAt(8, &count, sizeof(count));
      if (read.ok()) read = file_.ReadAt(12, &length32, sizeof(length32));
      if (!read.ok()) return read;
      if (std::memcmp(magic, kOdsyMagic, 4) != 0) {
        return Status::InvalidArgument("bad magic in " + path);
      }
      if (version != kOdsyVersion) {
        return Status::InvalidArgument("unsupported version in " + path);
      }
      if (length32 == 0) {
        return Status::InvalidArgument("zero series length in " + path);
      }
      if (options_.length != 0 && options_.length != length32) {
        return Status::InvalidArgument(
            "requested length " + std::to_string(options_.length) +
            " but the file header says " + std::to_string(length32) + ": " +
            path);
      }
      // The header's count is untrusted until it agrees with the actual
      // file size — a corrupt count must never size an allocation. u32*u32
      // fits a u64; only the *sizeof(float) step needs an explicit guard.
      const uint64_t payload_floats =
          static_cast<uint64_t>(count) * length32;
      if (payload_floats >
          (std::numeric_limits<uint64_t>::max() - kOdsyHeaderBytes) /
              sizeof(float)) {
        return Status::InvalidArgument(
            "header count/length overflow a 64-bit byte size: " + path);
      }
      if (kOdsyHeaderBytes + payload_floats * sizeof(float) != size) {
        return Status::InvalidArgument(
            "header count disagrees with the file size (count=" +
            std::to_string(count) + ", length=" + std::to_string(length32) +
            ", bytes=" + std::to_string(size) + "): " + path);
      }
      length_ = length32;
      record_bytes_ = static_cast<uint64_t>(length_) * sizeof(float);
      data_offset_ = kOdsyHeaderBytes;
      total_in_file = count;
      break;
    }
    case DataFormat::kAuto:
      return Status::Internal("unresolved auto format for " + path);
  }
  first_ = std::min(options_.skip_series, total_in_file);
  total_ = total_in_file - first_;
  if (options_.max_series != 0) total_ = std::min(total_, options_.max_series);
  if (options_.chunk_size == 0) {
    return Status::InvalidArgument("chunk_size must be positive");
  }
  return Status::Ok();
}

Status SeriesIngestor::ReadRange(size_t begin, size_t count,
                                 float* dst) const {
  if (begin > total_ || count > total_ - begin) {
    return Status::OutOfRange(
        "series [" + std::to_string(begin) + ", " +
        std::to_string(begin + count) + ") past the " +
        std::to_string(total_) + " this ingestor yields: " + file_.path());
  }
  const uint64_t abs = first_ + begin;
  switch (format_) {
    case DataFormat::kRawFloat:
    case DataFormat::kOdyssey: {
      // Contiguous on disk: one straight copy (a single memcpy out of the
      // map, or one pread run in the buffered fallback).
      Status read = file_.ReadAt(data_offset_ + abs * record_bytes_, dst,
                                 count * static_cast<size_t>(record_bytes_));
      if (!read.ok()) return read;
      break;
    }
    case DataFormat::kFvecs:
    case DataFormat::kBvecs: {
      // bvecs components are widened through a byte buffer of this call's
      // own, so concurrent calls share nothing.
      std::vector<uint8_t> bytes(format_ == DataFormat::kBvecs ? length_ : 0);
      for (size_t i = 0; i < count; ++i) {
        const uint64_t off = (abs + i) * record_bytes_;
        uint32_t dim = 0;
        Status read = file_.ReadAt(off, &dim, sizeof(dim));
        if (!read.ok()) return read;
        if (dim != length_) {
          return Status::InvalidArgument(
              "vector " + std::to_string(abs + i) +
              " has dimension " + std::to_string(dim) + ", expected " +
              std::to_string(length_) + ": " + file_.path());
        }
        float* row = dst + i * length_;
        if (format_ == DataFormat::kFvecs) {
          read = file_.ReadAt(off + sizeof(dim), row, length_ * sizeof(float));
        } else {
          read = file_.ReadAt(off + sizeof(dim), bytes.data(), length_);
          if (read.ok()) std::copy(bytes.begin(), bytes.end(), row);
        }
        if (!read.ok()) return read;
      }
      break;
    }
    case DataFormat::kAuto:
      return Status::Internal("unresolved format");
  }
  if (options_.znormalize) {
    for (size_t i = 0; i < count; ++i) ZNormalize(dst + i * length_, length_);
  }
  return Status::Ok();
}

StatusOr<SeriesCollection> SeriesIngestor::Pull(size_t count) {
  SeriesCollection out(length_);
  if (count == 0) return out;  // empty collection = end of archive
  out.Reserve(count);
  Status read = ReadRange(next_, count, out.AppendUninitialized(count));
  if (!read.ok()) return read;
  next_ += count;
  return out;
}

StatusOr<SeriesCollection> SeriesIngestor::NextChunk() {
  return Pull(std::min(options_.chunk_size, total_ - next_));
}

StatusOr<SeriesCollection> SeriesIngestor::ReadAll() {
  // Single allocation of the full remainder: this is the explicit
  // fits-in-RAM convenience; bounded-memory callers pull NextChunk.
  return Pull(total_ - next_);
}

StatusOr<SeriesCollection> IngestFile(const std::string& path,
                                      const IngestOptions& options) {
  StatusOr<SeriesIngestor> ingestor = SeriesIngestor::Open(path, options);
  if (!ingestor.ok()) return ingestor.status();
  return ingestor->ReadAll();
}

}  // namespace odyssey
