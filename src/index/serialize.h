#ifndef ODYSSEY_INDEX_SERIALIZE_H_
#define ODYSSEY_INDEX_SERIALIZE_H_

#include <string>

#include "src/index/builder.h"

namespace odyssey {

/// Index persistence. A node can snapshot its built index and reload it on
/// restart instead of re-summarizing and re-inserting its chunk — useful
/// when the same deployment answers many batches across process lifetimes.
///
/// Format version 2 (little-endian): header (magic "ODIX", version,
/// series length, segments, max bits, leaf capacity, series count), the
/// series rows in the index's leaf order, the row → caller's id map
/// (Index::chunk()->global_ids()), then each root subtree (key + pre-order
/// node stream; internal nodes carry their split segment, leaves their row
/// count — a leaf's first row is implied by the pre-order). The file holds
/// no SAX rows: the loader recomputes each from its series, so a loaded
/// summary always bounds the series it stands for. A version-1 file (which
/// stored leaf id lists and a SAX table) is refused with InvalidArgument.
///
/// The loader checks what exact search rests on: every row lies inside its
/// leaf's word, the leaf counts tile the rows, the id map names each series
/// once, and no root is empty. A loaded index is bit-identical to the
/// built one (the round-trip tests cover this), so it remains a valid
/// work-stealing replica of any node that built the same chunk.

/// Writes `index` to `path`, overwriting any existing file.
Status SaveIndexToFile(const Index& index, const std::string& path);

/// Reads an index previously written by SaveIndexToFile.
StatusOr<Index> LoadIndexFromFile(const std::string& path);

}  // namespace odyssey

#endif  // ODYSSEY_INDEX_SERIALIZE_H_
