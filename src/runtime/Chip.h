/**
 * @file
 * A DARTH-PUM chip: a collection of hybrid compute tiles behind
 * shared front ends.
 *
 * Functional simulation instantiates `numHcts` real tiles; iso-area
 * throughput studies additionally set `modeledHcts` to the full chip
 * tile count (Table 3 derivation: 1860 with SAR ADCs), and the benches
 * scale per-tile rates by modeledHcts — exact for the independent
 * work units (AES blocks, inference batches) the paper evaluates.
 */

#ifndef DARTH_RUNTIME_CHIP_H
#define DARTH_RUNTIME_CHIP_H

#include <cstddef>
#include <memory>
#include <vector>

#include "common/Stats.h"
#include "hct/Hct.h"

namespace darth
{
namespace runtime
{

/** Chip-level configuration. */
struct ChipConfig
{
    hct::HctConfig hct;
    /** Functionally instantiated tiles. */
    std::size_t numHcts = 4;
    /** Tiles assumed for throughput scaling (0 = numHcts). */
    std::size_t modeledHcts = 0;
};

/** The simulated chip. */
class Chip
{
  public:
    explicit Chip(const ChipConfig &config, u64 seed = 1);

    const ChipConfig &config() const { return cfg_; }

    std::size_t numHcts() const { return hcts_.size(); }

    /** Tile count used for throughput scaling. */
    std::size_t
    modeledHcts() const
    {
        return cfg_.modeledHcts == 0 ? hcts_.size() : cfg_.modeledHcts;
    }

    hct::Hct &hct(std::size_t i);
    const hct::Hct &hct(std::size_t i) const;

    CostTally &tally() { return tally_; }
    const CostTally &tally() const { return tally_; }

  private:
    ChipConfig cfg_;
    CostTally tally_;
    std::vector<std::unique_ptr<hct::Hct>> hcts_;
};

} // namespace runtime
} // namespace darth

#endif // DARTH_RUNTIME_CHIP_H
