#include "runtime/Chip.h"

#include "common/Logging.h"

namespace darth
{
namespace runtime
{

Chip::Chip(const ChipConfig &config, u64 seed) : cfg_(config)
{
    if (cfg_.numHcts == 0)
        darth_fatal("Chip: at least one HCT is required");
    hcts_.reserve(cfg_.numHcts);
    for (std::size_t i = 0; i < cfg_.numHcts; ++i)
        hcts_.push_back(std::make_unique<hct::Hct>(
            cfg_.hct, &tally_, seed + i * 104729));
}

hct::Hct &
Chip::hct(std::size_t i)
{
    if (i >= hcts_.size())
        darth_panic("Chip: HCT ", i, " out of range ", hcts_.size());
    return *hcts_[i];
}

const hct::Hct &
Chip::hct(std::size_t i) const
{
    if (i >= hcts_.size())
        darth_panic("Chip: HCT ", i, " out of range ", hcts_.size());
    return *hcts_[i];
}

} // namespace runtime
} // namespace darth
