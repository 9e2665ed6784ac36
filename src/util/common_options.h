// Options shared by every layer that predicts placements.
//
// Two knobs recur across the pipeline's options structs (PredictionOptions,
// OptimizerOptions, SweepOptions): how many worker threads to fan
// independent work out over, and whether to memoize predictions in the
// process-wide PredictionCache. Each struct embeds one CommonOptions member
// so CLI front-ends can parse `--jobs` once (tools/tool_common.h) and
// thread the result through a single path. The convergence-trace hook is
// read only through a predictor's options, so it lives in
// PredictionOptions.
#ifndef PANDIA_SRC_UTIL_COMMON_OPTIONS_H_
#define PANDIA_SRC_UTIL_COMMON_OPTIONS_H_

namespace pandia {

struct CommonOptions {
  // Worker threads for independent fan-out (candidate predictions, sweep
  // placements, admission probes over rack machines). 0 defers to the
  // PANDIA_JOBS environment variable; unset means serial. Results are
  // byte-identical at every job count (src/util/parallel.h).
  int jobs = 0;

  // Memoize predictions in PredictionCache::Global(). Automatically
  // bypassed when the predictor's PredictionOptions::trace is set (a cache
  // hit would silently skip recording).
  bool use_cache = true;
};

}  // namespace pandia

#endif  // PANDIA_SRC_UTIL_COMMON_OPTIONS_H_
