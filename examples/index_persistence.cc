// Index persistence: snapshot a built index to disk and reload it in a
// (conceptually) new process. Because loading is bit-identical to building
// (replica determinism), a loaded index remains a valid work-stealing
// replica of any node that indexed the same chunk — so a restarted node
// can rejoin its replication group without re-summarizing its data.

#include <cmath>
#include <cstdio>

#include "src/common/stopwatch.h"
#include "src/dataset/generators.h"
#include "src/dataset/workload.h"
#include "src/index/query_engine.h"
#include "src/index/serialize.h"

int main() {
  using namespace odyssey;

  const SeriesCollection data = GenerateSeismicLike(30000, 256, 31);
  IndexOptions options;
  options.config = IsaxConfig(256, 16);
  options.leaf_capacity = 128;

  Stopwatch watch;
  ThreadPool pool(4);
  BuildTimings timings;
  const Index built =
      Index::Build(SeriesCollection(data), options, &pool, &timings);
  std::printf("built index over %zu series in %.3f s\n", data.size(),
              timings.index_seconds());

  const std::string path = "/tmp/odyssey_example_index.odix";
  watch.Restart();
  ODYSSEY_CHECK_OK(SaveIndexToFile(built, path));
  std::printf("saved to %s in %.3f s\n", path.c_str(),
              watch.ElapsedSeconds());

  watch.Restart();
  StatusOr<Index> loaded = LoadIndexFromFile(path);
  ODYSSEY_CHECK_MSG(loaded.ok(), loaded.status().ToString().c_str());
  std::printf("loaded in %.3f s (%zu series, %zu root subtrees)\n",
              watch.ElapsedSeconds(), loaded->data().size(),
              loaded->tree().root_count());

  // Answer a few queries on the loaded index; both indexes must agree.
  const SeriesCollection queries = GenerateUniformQueries(data, 5, 1.0, 33);
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryOptions qo;
    qo.num_threads = 4;
    // One prepared artifact serves both indexes (as replicas share one in
    // the distributed path).
    const PreparedQuery prepared =
        PrepareQuery(queries.data(q), built.config(), qo);
    QueryExecution from_build(&built, prepared, qo);
    from_build.SeedInitialBsf();
    from_build.Run(&pool);
    QueryExecution from_load(&*loaded, prepared, qo);
    from_load.SeedInitialBsf();
    from_load.Run(&pool);
    const Neighbor a = from_build.results().SortedResults()[0];
    const Neighbor b = from_load.results().SortedResults()[0];
    // An answer id is a row of the index; global_ids() maps it back to the
    // series' position in `data`, which the file stores alongside the rows.
    const uint32_t series_a = built.chunk()->global_ids()[a.id];
    const uint32_t series_b = loaded->chunk()->global_ids()[b.id];
    std::printf("  query %zu: built -> (series %u, %.4f), loaded -> "
                "(series %u, %.4f)\n",
                q, series_a, std::sqrt(a.squared_distance), series_b,
                std::sqrt(b.squared_distance));
    ODYSSEY_CHECK(a.id == b.id && series_a == series_b);
    ODYSSEY_CHECK(a.squared_distance == b.squared_distance);
  }
  std::remove(path.c_str());
  std::printf("loaded index answers identically — a valid replica.\n");
  return 0;
}
