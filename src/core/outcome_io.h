// outcome_io.h — JSON (de)serialisation of TuningOutcome.
//
// The campaign engine persists every finished scenario as JSON so a re-run
// can skip it (--resume) and external tooling can aggregate fleets of runs;
// hmpt_analyze --json reuses the same serialiser for single runs. The
// format is lossless: fields the decoder can rebuild bit for bit (mask
// ids, speedups, HBM fractions, group counts, an exhaustive trajectory)
// are left out, and every other field is stored exactly, so an outcome
// parsed back from its JSON compares equal to the original (covered by
// tests). That is what makes the on-disk outcome store a cache rather
// than a lossy log.
#pragma once

#include "common/json.h"
#include "core/strategy.h"

namespace hmpt::tuner {

/// Serialise an outcome (including trajectory, measured table and, when
/// present, the full sweep) to a JSON object.
Json outcome_to_json(const TuningOutcome& outcome);

/// Parse an outcome back; throws hmpt::Error on a malformed document.
TuningOutcome outcome_from_json(const Json& json);

}  // namespace hmpt::tuner
