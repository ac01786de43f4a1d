#include "src/index/serialize.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>

namespace odyssey {
namespace {

constexpr char kMagic[4] = {'O', 'D', 'I', 'X'};
constexpr uint32_t kVersion = 1;
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
    if (!WriteValue<uint8_t>(f, kLeafTag)) return false;
    const uint32_t n = static_cast<uint32_t>(node->ids().size());
    if (!WriteValue(f, n)) return false;
    return n == 0 ||
           WriteBytes(f, node->ids().data(), n * sizeof(uint32_t));
  }
  if (!WriteValue<uint8_t>(f, kInternalTag)) return false;
  if (!WriteValue<uint8_t>(
          f, static_cast<uint8_t>(node->split_segment()))) {
    return false;
  }
  return WriteNode(f, node->left()) && WriteNode(f, node->right());
}

/// Reads one pre-order subtree under the word `word`. A leaf must hold
/// only ids the table has, none already placed in another leaf (`placed`,
/// one flag per series), and only rows its word matches: the query engine
/// trusts that every series sits in exactly one leaf whose word bounds it.
std::unique_ptr<TreeNode> ReadNode(BoundedReader* in, IsaxWord word,
                                   const std::vector<uint8_t>& sax_table,
                                   const IsaxConfig& config,
                                   std::vector<uint8_t>* placed, bool* ok) {
  uint8_t tag = 0;
  if (!in->Value(&tag)) {
    *ok = false;
    return nullptr;
  }
  auto node = std::make_unique<TreeNode>(word);
  if (tag == kLeafTag) {
    const size_t w = static_cast<size_t>(config.segments());
    uint32_t n = 0;
    // A leaf can hold no more ids than the file has left, nor more than the
    // index has series (which bounds the leaf's SAX rows below).
    if (!in->Value(&n) || !in->Fits(n, sizeof(uint32_t)) ||
        n > sax_table.size() / w) {
      *ok = false;
      return nullptr;
    }
    std::vector<uint32_t> ids(n);
    if (n > 0 && !in->Read(ids.data(), n * sizeof(uint32_t))) {
      *ok = false;
      return nullptr;
    }
    std::vector<uint8_t> leaf_sax;
    leaf_sax.reserve(n * w);
    for (uint32_t id : ids) {
      if (static_cast<size_t>(id) * w + w > sax_table.size() ||
          (*placed)[id] != 0 ||
          !node->word().Matches(sax_table.data() + id * w, config)) {
        *ok = false;
        return nullptr;
      }
      (*placed)[id] = 1;
      leaf_sax.insert(leaf_sax.end(), sax_table.data() + id * w,
                      sax_table.data() + (id + 1) * w);
    }
    node->SetLeafPayload(std::move(ids), std::move(leaf_sax));
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
  auto left =
      ReadNode(in, std::move(left_word), sax_table, config, placed, ok);
  if (!*ok) return nullptr;
  auto right =
      ReadNode(in, std::move(right_word), sax_table, config, placed, ok);
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
  if (!WriteBytes(f.get(), index.sax_table().data(),
                  index.sax_table().size())) {
    return Status::IoError("short SAX-table write: " + path);
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
    return Status::InvalidArgument("unsupported index version in " + path);
  }
  // Bounds every field an IsaxConfig checks, so a corrupt header is a
  // Status here instead of an abort in the constructor below.
  if (length == 0 || segments == 0 || segments > length ||
      segments > static_cast<uint32_t>(kMaxSegments) || max_bits == 0 ||
      max_bits > static_cast<uint32_t>(kMaxSaxBits) || leaf_capacity == 0) {
    return Status::InvalidArgument("corrupt index header in " + path);
  }
  // The series rows and the SAX table follow the header back to back.
  if (!in.Fits(count, uint64_t{length} * sizeof(float) + segments)) {
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
  std::vector<uint8_t> sax_table(static_cast<size_t>(count) * segments);
  if (!in.Read(sax_table.data(), sax_table.size())) {
    return Status::IoError("short SAX-table read: " + path);
  }
  // A symbol is max_bits wide: the query engine's bound tables have one
  // entry per possible symbol, so a wider byte would be read past its row.
  const uint32_t symbols = 1u << max_bits;
  for (uint8_t symbol : sax_table) {
    if (symbol >= symbols) {
      return Status::InvalidArgument("SAX symbol wider than max_bits in " +
                                     path);
    }
  }
  // The tree is loaded below, not rebuilt, so the adopted bundle skips the
  // summarization buffers.
  Index index(SharedChunk::Adopt(std::move(data), {}, std::move(sax_table),
                                 options.config, /*pool=*/nullptr,
                                 /*build_buffers=*/false),
              options);

  uint32_t root_count = 0;
  if (!in.Value(&root_count)) {
    return Status::IoError("short tree read: " + path);
  }
  // Every root costs at least its key and one node tag.
  if (!in.Fits(root_count, sizeof(uint32_t) + 1)) {
    return Status::InvalidArgument("root count exceeds the file size in " +
                                   path);
  }
  std::vector<uint32_t> keys;
  std::vector<std::unique_ptr<TreeNode>> roots;
  keys.reserve(root_count);
  roots.reserve(root_count);
  std::vector<uint8_t> placed(count, 0);
  for (uint32_t r = 0; r < root_count; ++r) {
    uint32_t key = 0;
    if (!in.Value(&key)) {
      return Status::IoError("short tree read: " + path);
    }
    if (!keys.empty() && key <= keys.back()) {
      return Status::InvalidArgument("root keys out of order in " + path);
    }
    bool ok = true;
    auto root = ReadNode(&in, IsaxWord::Root(options.config, key),
                         index.sax_table(), options.config, &placed, &ok);
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
  if (std::find(placed.begin(), placed.end(), 0) != placed.end()) {
    return Status::InvalidArgument("series missing from the tree in " + path);
  }
  index.tree_ = IndexTree::FromRoots(std::move(keys), std::move(roots));
  return index;
}

}  // namespace odyssey
