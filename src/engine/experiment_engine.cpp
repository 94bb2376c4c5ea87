#include "src/engine/experiment_engine.h"

namespace dynbcast {

ExperimentEngine::ExperimentEngine(EngineConfig config) : pool_(config.jobs) {}

}  // namespace dynbcast
