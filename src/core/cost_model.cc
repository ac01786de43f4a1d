#include "src/core/cost_model.h"

#include <algorithm>
#include <cstdint>

#include "src/common/check.h"
#include "src/common/thread_pool.h"

namespace odyssey {

Status CostModel::Fit(const std::vector<double>& initial_bsf,
                      const std::vector<double>& exec_seconds) {
  return regression_.Fit(initial_bsf, exec_seconds);
}

double CostModel::PredictSeconds(double initial_bsf) const {
  ODYSSEY_CHECK_MSG(fitted(), "PredictSeconds before Fit");
  return std::max(0.0, regression_.Predict(initial_bsf));
}

std::vector<CalibrationSample> CollectCalibrationSamples(
    const Index& index, const SeriesCollection& queries,
    const QueryOptions& options) {
  QueryOptions calibration_options = options;
  // No queue is sealed early, so each one's size is the natural one the
  // ThresholdModel is calibrated on.
  calibration_options.queue_threshold = SIZE_MAX;
  // One pool for the whole sample set, as a node's executor would run the
  // queries: no thread is created per query.
  ThreadPool pool(static_cast<size_t>(std::max(1, options.num_threads)));
  const PreparedBatch prepared =
      PrepareBatch(queries, index.config(), calibration_options, &pool);
  std::vector<CalibrationSample> samples;
  samples.reserve(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryExecution exec(&index, prepared.query(q), calibration_options);
    CalibrationSample sample;
    sample.initial_bsf = exec.SeedInitialBsf();
    exec.Run(&pool);
    const QueryStats stats = exec.stats();
    sample.exec_seconds = stats.elapsed_seconds;
    sample.median_pq_size = stats.median_queue_size;
    samples.push_back(sample);
  }
  return samples;
}

}  // namespace odyssey
