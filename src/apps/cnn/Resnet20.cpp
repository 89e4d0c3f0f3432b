#include "apps/cnn/Resnet20.h"

#include <algorithm>

namespace darth
{
namespace cnn
{

namespace
{

const std::size_t kStageWidths[3] = {16, 32, 64};

} // namespace

Resnet20::Resnet20(u64 seed)
{
    Rng rng(seed);
    conv1_ = std::make_unique<Conv2d>("c1-Conv1", 3, 16, 3, 1, 1);
    conv1_->initRandom(rng);

    std::size_t in_width = 16;
    stages_.resize(3);
    for (std::size_t s = 0; s < 3; ++s) {
        const std::size_t width = kStageWidths[s];
        for (std::size_t b = 0; b < 3; ++b) {
            Block block;
            const std::size_t stride = (s > 0 && b == 0) ? 2 : 1;
            const std::string prefix = "r" + std::to_string(s + 1) +
                                       "-b" + std::to_string(b);
            block.conv1 = std::make_unique<Conv2d>(
                prefix + "-Conv1", b == 0 ? in_width : width, width, 3,
                stride, 1);
            block.conv1->initRandom(rng);
            block.conv2 = std::make_unique<Conv2d>(
                prefix + "-Conv2", width, width, 3, 1, 1);
            block.conv2->initRandom(rng);
            if (stride != 1) {
                block.downsample = std::make_unique<Conv2d>(
                    "r" + std::to_string(s + 1) + "-ds", in_width,
                    width, 1, 2, 0);
                block.downsample->initRandom(rng);
            }
            stages_[s].push_back(std::move(block));
        }
        in_width = width;
    }

    fc_ = std::make_unique<FullyConnected>("Seq-b4-Seq", 64, 10);
    fc_->initRandom(rng);
}

std::vector<i64>
Resnet20::infer(const Tensor &input, const MvmNoise &noise) const
{
    Tensor x = conv1_->forward(input, noise);
    relu(x);

    for (const auto &stage : stages_) {
        for (const auto &block : stage) {
            Tensor identity =
                block.downsample ? block.downsample->forward(x, noise)
                                 : x;
            Tensor y = block.conv1->forward(x, noise);
            relu(y);
            y = block.conv2->forward(y, noise);
            addResidual(y, identity);
            relu(y);
            x = std::move(y);
        }
    }

    const std::vector<i64> pooled = globalAvgPool(x);
    return fc_->forward(pooled, noise);
}

std::size_t
Resnet20::argmax(const std::vector<i64> &logits)
{
    return static_cast<std::size_t>(
        std::max_element(logits.begin(), logits.end()) -
        logits.begin());
}

std::vector<LayerStats>
Resnet20::layerStats() const
{
    std::vector<LayerStats> stats;
    stats.push_back(conv1_->stats(32, 32));

    std::size_t h = 32;
    for (std::size_t s = 0; s < 3; ++s) {
        for (std::size_t b = 0; b < 3; ++b) {
            const Block &block = stages_[s][b];
            const std::size_t in_h = h;
            if (s > 0 && b == 0)
                h /= 2;
            stats.push_back(block.conv1->stats(in_h, in_h));
            stats.push_back(block.conv2->stats(h, h));
            if (block.downsample)
                stats.push_back(block.downsample->stats(in_h, in_h));
        }
    }
    stats.push_back(fc_->stats());
    return stats;
}

Tensor
syntheticInput(u64 seed)
{
    Rng rng(seed);
    Tensor input(3, 32, 32);
    for (auto &v : input.data())
        v = static_cast<i32>(rng.uniformInt(i64{-64}, i64{63}));
    return input;
}

} // namespace cnn
} // namespace darth
