// outcome_io.h — JSON (de)serialisation of TuningOutcome.
//
// The campaign engine persists every finished scenario as JSON so a re-run
// can skip it (--resume) and external tooling can aggregate fleets of runs;
// hmpt_analyze --json reuses the same serialiser for single runs. A row
// holds only what was measured (mask, mean and stddev time); speedups, HBM
// fractions and group counts are functions of the row, the baseline and
// the outcome's per-group weights (experiment.h), stored once per record,
// and so is the headline's (TuningOutcome::speedup() and the rest). A
// trajectory stores the search's order and its verdicts, as the positions
// of its accepted steps; a step's time is its row's when the two are one
// measurement. The format is lossless: what the decoder can rebuild bit
// for bit (mask ids of a full sweep, a sweep's baseline and shape, a
// noise-free run's stddevs, step times equal to their rows' mean times,
// indices counting up by one from a stored start, a baseline or chosen
// time its row holds, a configuration count equal to the row count,
// weight totals equal to their weights' sum) is left out, and every
// other field is stored exactly, so an outcome parsed back from its JSON
// compares equal to the original (covered by tests). That is what makes
// the on-disk outcome store a cache rather than a lossy log. Row lists
// must be sorted by mask, as every strategy's are; the writer refuses
// others.
#pragma once

#include "common/json.h"
#include "core/strategy.h"

namespace hmpt::tuner {

/// Serialise an outcome (including trajectory, measured table and, when
/// present, the full sweep) to a JSON object. Throws hmpt::Error when its
/// weights, chosen time, row order or sweep are ones the decoder would
/// refuse.
Json outcome_to_json(const TuningOutcome& outcome);

/// What outcome_from_json does with an outcome's row lists (`table`,
/// `sweep` and `trajectory`). Either way every check runs on every row, in
/// the same order, so a document is rejected with the same error in both
/// modes. Keep returns the rows. Skip returns the headline and the weights
/// alone (empty `table` and `trajectory`, no `sweep`). A double column
/// is stored as its sorted distinct values (a dictionary) and one
/// fixed-width rank per row, in base64 (outcome_io.cpp has the byte
/// layout and its refusal rules); Skip holds a column's dictionary and a
/// used-bit per entry, reads ranks in place, and finds a step's row in
/// the stored columns, so validating a record allocates nothing per row
/// or step. The weights are checked once per record, which bounds every
/// row's HBM fractions; a speedup is checked once per distinct time.
enum class Rows { Keep, Skip };

/// Parse an outcome back; throws hmpt::Error on a malformed document.
TuningOutcome outcome_from_json(const Json& json, Rows rows = Rows::Keep);

}  // namespace hmpt::tuner
