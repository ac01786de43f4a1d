#include "src/index/serialize.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/check.h"

namespace odyssey {
namespace {

constexpr char kMagic[4] = {'O', 'D', 'I', 'X'};
constexpr uint32_t kVersion = 2;
constexpr uint8_t kLeafTag = 0;
constexpr uint8_t kInternalTag = 1;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool WriteBytes(std::FILE* f, const void* data, size_t bytes) {
  return std::fwrite(data, 1, bytes, f) == bytes;
}

template <typename T>
bool WriteValue(std::FILE* f, T value) {
  return WriteBytes(f, &value, sizeof(T));
}

/// Reads an open file while tracking the bytes it has left, so every count
/// the file declares is checked against what the file can actually hold
/// before anything is sized from it. A corrupt count then fails the load
/// with a Status instead of a multi-gigabyte allocation.
class BoundedReader {
 public:
  BoundedReader(std::FILE* f, uint64_t size) : f_(f), left_(size) {}

  bool Read(void* data, size_t bytes) {
    if (bytes > left_ || std::fread(data, 1, bytes, f_) != bytes) return false;
    left_ -= bytes;
    return true;
  }

  template <typename T>
  bool Value(T* value) {
    return Read(value, sizeof(T));
  }

  /// True when `count` items of `item_bytes` each fit in the bytes left.
  /// Divides instead of multiplying, so no declared count can overflow it.
  bool Fits(uint64_t count, uint64_t item_bytes) const {
    return item_bytes == 0 || count <= left_ / item_bytes;
  }

 private:
  std::FILE* f_;
  uint64_t left_;
};

bool WriteNode(std::FILE* f, const TreeNode* node) {
  if (node->is_leaf()) {
    return WriteValue<uint8_t>(f, kLeafTag) &&
           WriteValue(f, static_cast<uint32_t>(node->subtree_size()));
  }
  if (!WriteValue<uint8_t>(f, kInternalTag)) return false;
  if (!WriteValue<uint8_t>(
          f, static_cast<uint8_t>(node->split_segment()))) {
    return false;
  }
  return WriteNode(f, node->left()) && WriteNode(f, node->right());
}

/// Reads one pre-order subtree under the word `word`. Its leaves take the
/// next rows of `chunk` in order, starting at `*next_row`: a leaf may claim
/// no more rows than are left, and only rows its word matches — the query
/// engine trusts that every leaf's word bounds each of its rows.
std::unique_ptr<TreeNode> ReadNode(BoundedReader* in, IsaxWord word,
                                   const SharedChunk& chunk,
                                   const IsaxConfig& config,
                                   uint32_t* next_row, bool* ok) {
  uint8_t tag = 0;
  if (!in->Value(&tag)) {
    *ok = false;
    return nullptr;
  }
  auto node = std::make_unique<TreeNode>(word);
  if (tag == kLeafTag) {
    uint32_t n = 0;
    if (!in->Value(&n) || n > chunk.size() - *next_row) {
      *ok = false;
      return nullptr;
    }
    for (uint32_t row = *next_row; row < *next_row + n; ++row) {
      if (!node->word().Matches(chunk.sax(row), config)) {
        *ok = false;
        return nullptr;
      }
    }
    node->SetLeafRange(*next_row, n);
    *next_row += n;
    return node;
  }
  if (tag != kInternalTag) {
    *ok = false;
    return nullptr;
  }
  uint8_t split = 0;
  if (!in->Value(&split) || split >= word.symbols.size() ||
      word.bits[split] >= config.max_bits) {
    *ok = false;
    return nullptr;
  }
  IsaxWord left_word = word;
  left_word.bits[split] = static_cast<uint8_t>(word.bits[split] + 1);
  left_word.symbols[split] = static_cast<uint8_t>(word.symbols[split] << 1);
  IsaxWord right_word = left_word;
  right_word.symbols[split] =
      static_cast<uint8_t>(right_word.symbols[split] | 1u);
  auto left = ReadNode(in, std::move(left_word), chunk, config, next_row, ok);
  if (!*ok) return nullptr;
  auto right =
      ReadNode(in, std::move(right_word), chunk, config, next_row, ok);
  if (!*ok) return nullptr;
  node->AdoptChildren(split, std::move(left), std::move(right));
  return node;
}

}  // namespace

Status SaveIndexToFile(const Index& index, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) {
    return Status::IoError("cannot open for writing: " + path);
  }
  const IsaxConfig& config = index.config();
  const uint32_t length = static_cast<uint32_t>(config.series_length());
  const uint32_t segments = static_cast<uint32_t>(config.segments());
  const uint32_t max_bits = static_cast<uint32_t>(config.max_bits);
  const uint32_t leaf_capacity =
      static_cast<uint32_t>(index.options().leaf_capacity);
  const uint32_t count = static_cast<uint32_t>(index.data().size());
  if (!WriteBytes(f.get(), kMagic, 4) || !WriteValue(f.get(), kVersion) ||
      !WriteValue(f.get(), length) || !WriteValue(f.get(), segments) ||
      !WriteValue(f.get(), max_bits) || !WriteValue(f.get(), leaf_capacity) ||
      !WriteValue(f.get(), count)) {
    return Status::IoError("short header write: " + path);
  }
  for (uint32_t i = 0; i < count; ++i) {
    if (!WriteBytes(f.get(), index.data().data(i), length * sizeof(float))) {
      return Status::IoError("short data write: " + path);
    }
  }
  const std::vector<uint32_t>& ids = index.chunk()->global_ids();
  ODYSSEY_CHECK(ids.size() == count);
  if (!WriteBytes(f.get(), ids.data(), ids.size() * sizeof(uint32_t))) {
    return Status::IoError("short id-map write: " + path);
  }
  const IndexTree& tree = index.tree();
  if (!WriteValue(f.get(), static_cast<uint32_t>(tree.root_count()))) {
    return Status::IoError("short tree write: " + path);
  }
  for (size_t r = 0; r < tree.root_count(); ++r) {
    if (!WriteValue(f.get(), tree.root_key(r)) ||
        !WriteNode(f.get(), tree.root(r))) {
      return Status::IoError("short tree write: " + path);
    }
  }
  return Status::Ok();
}

StatusOr<Index> LoadIndexFromFile(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return Status::IoError("cannot open for reading: " + path);
  }
  struct stat st {};
  if (fstat(fileno(f.get()), &st) != 0) {
    return Status::IoError("cannot stat: " + path);
  }
  BoundedReader in(f.get(), static_cast<uint64_t>(st.st_size));
  char magic[4];
  uint32_t version = 0, length = 0, segments = 0, max_bits = 0,
           leaf_capacity = 0, count = 0;
  if (!in.Read(magic, 4) || !in.Value(&version) || !in.Value(&length) ||
      !in.Value(&segments) || !in.Value(&max_bits) ||
      !in.Value(&leaf_capacity) || !in.Value(&count)) {
    return Status::IoError("short header read: " + path);
  }
  if (std::memcmp(magic, kMagic, 4) != 0) {
    return Status::InvalidArgument("bad magic in " + path);
  }
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported index version " +
                                   std::to_string(version) + " in " + path +
                                   " (this build reads version " +
                                   std::to_string(kVersion) + ")");
  }
  // Bounds every field an IsaxConfig checks, so a corrupt header is a
  // Status here instead of an abort in the constructor below.
  if (length == 0 || segments == 0 || segments > length ||
      segments > static_cast<uint32_t>(kMaxSegments) || max_bits == 0 ||
      max_bits > static_cast<uint32_t>(kMaxSaxBits) || leaf_capacity == 0) {
    return Status::InvalidArgument("corrupt index header in " + path);
  }
  // The series rows and the id map follow the header back to back.
  if (!in.Fits(count, uint64_t{length} * sizeof(float) + sizeof(uint32_t))) {
    return Status::InvalidArgument("series count exceeds the file size in " +
                                   path);
  }

  IndexOptions options;
  options.config = IsaxConfig(length, static_cast<int>(segments),
                              static_cast<int>(max_bits));
  options.leaf_capacity = leaf_capacity;

  SeriesCollection data(length);
  float* dst = data.AppendUninitialized(count);
  if (!in.Read(dst, static_cast<size_t>(count) * length * sizeof(float))) {
    return Status::IoError("short data read: " + path);
  }
  std::vector<uint32_t> ids(count);
  if (!in.Read(ids.data(), ids.size() * sizeof(uint32_t))) {
    return Status::IoError("short id-map read: " + path);
  }
  {
    std::vector<uint32_t> sorted = ids;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      return Status::InvalidArgument("id map names a series twice in " +
                                     path);
    }
  }
  // The file stores no SAX rows: each is recomputed from its series, so a
  // row's summary always matches the series it bounds.
  std::unique_ptr<SharedChunk> chunk =
      SharedChunk::Build(std::move(data), std::move(ids), options.config);

  uint32_t root_count = 0;
  if (!in.Value(&root_count)) {
    return Status::IoError("short tree read: " + path);
  }
  // Every root costs at least its key and one node tag.
  if (!in.Fits(root_count, sizeof(uint32_t) + 1)) {
    return Status::InvalidArgument("root count exceeds the file size in " +
                                   path);
  }
  const uint64_t key_limit = uint64_t{1} << segments;
  std::vector<uint32_t> keys;
  std::vector<std::unique_ptr<TreeNode>> roots;
  keys.reserve(root_count);
  roots.reserve(root_count);
  uint32_t next_row = 0;
  for (uint32_t r = 0; r < root_count; ++r) {
    uint32_t key = 0;
    if (!in.Value(&key)) {
      return Status::IoError("short tree read: " + path);
    }
    if ((!keys.empty() && key <= keys.back()) || key >= key_limit) {
      return Status::InvalidArgument("root key out of order or range in " +
                                     path);
    }
    bool ok = true;
    auto root = ReadNode(&in, IsaxWord::Root(options.config, key), *chunk,
                         options.config, &next_row, &ok);
    if (!ok) {
      return Status::InvalidArgument("corrupt subtree in " + path);
    }
    // A build creates a root only for a series it holds, and approximate
    // search must reach a non-empty leaf from any root it picks.
    if (root->subtree_size() == 0) {
      return Status::InvalidArgument("empty root subtree in " + path);
    }
    keys.push_back(key);
    roots.push_back(std::move(root));
  }
  // The leaves claim rows in order, so every row lies in exactly one leaf
  // once their counts add up to the rows.
  if (next_row != count) {
    return Status::InvalidArgument("series missing from the tree in " + path);
  }
  Index index(std::move(chunk), options);
  index.tree_ = IndexTree::FromRoots(std::move(keys), std::move(roots));
  return index;
}

}  // namespace odyssey
