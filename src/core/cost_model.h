#ifndef ODYSSEY_CORE_COST_MODEL_H_
#define ODYSSEY_CORE_COST_MODEL_H_

#include <vector>

#include "src/common/linear_regression.h"
#include "src/common/status.h"
#include "src/index/query_engine.h"

namespace odyssey {

/// The paper's query execution-time predictor (Section 3.1, Figure 4):
/// queries with a high initial BSF tend to take longer, and a linear
/// regression on (initial BSF, execution time) calibration pairs gives
/// good-enough per-query estimates for load-balanced scheduling.
class CostModel {
 public:
  CostModel() = default;

  /// Fits the regression. `initial_bsf[i]` is the i-th calibration query's
  /// initial best-so-far (true distance), `exec_seconds[i]` its measured
  /// execution time.
  Status Fit(const std::vector<double>& initial_bsf,
             const std::vector<double>& exec_seconds);

  bool fitted() const { return regression_.fitted(); }
  const LinearRegression& regression() const { return regression_; }

  /// Predicted execution time (seconds, clamped to >= 0) for a query with
  /// the given initial BSF. Must be fitted.
  double PredictSeconds(double initial_bsf) const;

 private:
  LinearRegression regression_;
};

/// One calibration sample.
struct CalibrationSample {
  double initial_bsf = 0.0;       ///< true-distance initial BSF
  double exec_seconds = 0.0;      ///< single-node execution time
  double median_pq_size = 0.0;    ///< median priority-queue size (leaves)
};

/// Runs `queries` one by one against `index` (no BSF sharing, unbounded
/// queues) on one pool of `options.num_threads` workers created for the
/// call, and records per-query calibration samples. Feeds both the
/// CostModel (Figure 4) and the ThresholdModel (Figure 6a).
std::vector<CalibrationSample> CollectCalibrationSamples(
    const Index& index, const SeriesCollection& queries,
    const QueryOptions& options);

}  // namespace odyssey

#endif  // ODYSSEY_CORE_COST_MODEL_H_
