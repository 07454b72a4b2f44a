// Machine-readable exports of experiment results (CSV and JSON), so sweeps
// run through the CLI or the bench binaries can feed plotting scripts
// without scraping the text tables.
#pragma once

#include <ostream>
#include <span>
#include <string>

#include "sim/experiment.hpp"

namespace llamcat {

/// Writes one comma-separated row per result, with a header row: derived
/// headline metrics first, then raw totals, then one column per counter -
/// the sorted union of all counter names across results, with missing
/// entries written as 0.
void write_csv(std::ostream& os, std::span<const ExperimentResult> results);

/// Writes a JSON array of result objects. Counters are always included
/// (JSON is the lossless export).
void write_json(std::ostream& os, std::span<const ExperimentResult> results);

/// Single-run convenience used by the CLI.
void write_json(std::ostream& os, const std::string& name,
                const SimStats& stats);

}  // namespace llamcat
