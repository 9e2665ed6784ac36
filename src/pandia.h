// Umbrella public header — the supported Pandia surface in one include.
//
// Front-ends (the tools/ binaries, embedders of the placement service)
// include only this header; everything it pulls in is public API, and each
// of the headers below is self-contained (enforced by the header_check CI
// target, which compiles every public header standalone).
//
// Layers, bottom to top:
//
//   util       Status/StatusOr error propagation, CommonOptions, strings,
//              annotated Mutex/CondVar + thread-safety annotations
//   lint       the pandia_lint repo-invariant checker's rule engine
//   obs        metrics registry, tracing, convergence introspection
//   topology   machine topologies, placements, placement parsing
//   sim        the simulated machines the evaluation harness runs on
//   desc       machine descriptions (§3) and workload descriptions (§4)
//   serialize  description files and the wire-v1 request/response schema
//   predictor  single-job and co-scheduled contention prediction (§5),
//              placement optimization, the prediction cache
//   rack       multi-machine online scheduling state (§8)
//   serve      the long-running placement service and its transports
//   eval       profiling pipeline, sweeps, and the workload suite
#ifndef PANDIA_SRC_PANDIA_H_
#define PANDIA_SRC_PANDIA_H_

#include "src/util/check.h"
#include "src/util/common_options.h"
#include "src/util/crc32c.h"
#include "src/util/mutex.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/status.h"
#include "src/util/strings.h"
#include "src/util/table.h"
#include "src/util/thread_annotations.h"

#include "src/lint/lint.h"

#include "src/obs/flight_recorder.h"
#include "src/obs/json_lint.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

#include "src/topology/placement.h"
#include "src/topology/placement_parse.h"
#include "src/topology/resource_index.h"
#include "src/topology/topology.h"

#include "src/sim/fault_plan.h"
#include "src/sim/machine.h"
#include "src/sim/machine_spec.h"

#include "src/machine_desc/generator.h"
#include "src/machine_desc/machine_description.h"
#include "src/workload_desc/assumptions.h"
#include "src/workload_desc/description.h"
#include "src/workload_desc/profiler.h"

#include "src/serialize/serialize.h"
#include "src/serialize/wire.h"

#include "src/predictor/co_schedule.h"
#include "src/predictor/optimizer.h"
#include "src/predictor/prediction_cache.h"
#include "src/predictor/predictor.h"
#include "src/predictor/report.h"

#include "src/rack/fleet.h"
#include "src/rack/rack.h"

#include "src/serve/client.h"
#include "src/serve/fleet_service.h"
#include "src/serve/journal.h"
#include "src/serve/service.h"
#include "src/serve/socket.h"

#include "src/eval/experiment.h"
#include "src/eval/pipeline.h"
#include "src/workloads/workloads.h"

#endif  // PANDIA_SRC_PANDIA_H_
