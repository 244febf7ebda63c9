/**
 * @file
 * The host forward's only per-step allocation is the h_t it returns
 * (DESIGN.md §18): the cell step works in buffers the layer loop owns.
 * This binary replaces the global operator new with one that counts
 * calls, runs nn::lstmLayerForward and ApproxRunner::runLayers at T and
 * 2T steps, and checks that the T added steps cost at most T
 * allocations, dense and with the approximations on.
 */

#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "core/approx.hh"
#include "nn/lstm.hh"
#include "tensor/rng.hh"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::size_t> allocations{0};

} // namespace

// The replacements are not inlined: where GCC sees malloc() or free()
// at a new or delete expression it warns (-Wmismatched-new-delete),
// though new and delete are replaced together here.
[[gnu::noinline]] void *
operator new(std::size_t n)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace mflstm;
using tensor::Vector;

constexpr std::size_t kSteps = 16;

/** Allocations made while @p f runs. */
template <typename F>
std::size_t
allocationsOf(F &&f)
{
    allocations.store(0);
    counting.store(true);
    f();
    counting.store(false);
    return allocations.load();
}

std::vector<Vector>
randomInputs(std::size_t steps, std::size_t width, tensor::Rng &rng)
{
    std::vector<Vector> xs(steps, Vector(width));
    for (Vector &x : xs)
        for (float &v : x)
            v = rng.uniform(-1.0f, 1.0f);
    return xs;
}

TEST(StepAllocations, LayerForwardAllocatesOnlyItsOutputs)
{
    nn::LstmLayerParams p(24, 40);
    tensor::Rng rng(3);
    p.init(rng);
    const std::vector<Vector> shortSeq = randomInputs(kSteps, 24, rng);
    const std::vector<Vector> longSeq = randomInputs(2 * kSteps, 24, rng);

    for (double alpha : {0.0, 0.5}) {
        std::size_t skipped = 0;
        auto forward = [&](const std::vector<Vector> &xs) {
            return allocationsOf([&] {
                nn::lstmLayerForward(p, nn::projectInputs(p, xs),
                                     nn::SigmoidKind::Logistic, {{alpha}},
                                     nullptr, &skipped);
            });
        };
        forward(shortSeq);  // warm-up
        const std::size_t once = forward(shortSeq);
        const std::size_t twice = forward(longSeq);
        EXPECT_GE(twice, 2 * kSteps);  // the counter sees the outputs
        EXPECT_LE(twice, once + kSteps) << "alpha_intra " << alpha;
        EXPECT_EQ(skipped > 0, alpha > 0.0);
    }

    const std::size_t once = allocationsOf([&] {
        nn::lstmLayerForward(p, shortSeq);
    });
    const std::size_t twice = allocationsOf([&] {
        nn::lstmLayerForward(p, longSeq);
    });
    EXPECT_GE(twice, 2 * kSteps);
    EXPECT_LE(twice, once + kSteps) << "exact overload";
}

TEST(StepAllocations, ApproxRunLayersAllocatesOnlyItsOutputs)
{
    nn::ModelConfig cfg;
    cfg.vocab = 16;
    cfg.embedSize = 24;
    cfg.hiddenSize = 40;
    cfg.numLayers = 1;
    cfg.numClasses = 2;
    const nn::LstmModel model(cfg, 5);
    core::ApproxRunner runner(model);

    tensor::Rng rng(7);
    std::vector<std::vector<std::int32_t>> seqs(4);
    for (auto &s : seqs)
        for (std::size_t t = 0; t < kSteps; ++t)
            s.push_back(static_cast<std::int32_t>(rng.integer(0, 15)));
    runner.calibrate(seqs);

    const std::vector<Vector> shortSeq = randomInputs(kSteps, 24, rng);
    const std::vector<Vector> longSeq = randomInputs(2 * kSteps, 24, rng);
    struct Thresholds
    {
        double inter, intra;
    };
    for (const Thresholds th :
         {Thresholds{0.0, 0.0}, Thresholds{0.0, 0.5},
          Thresholds{1e9, 0.5}}) {  // every link breaks
        runner.setThresholds(th.inter, th.intra);
        runner.resetStats();
        runner.runLayers(shortSeq);  // warm-up
        const std::size_t once =
            allocationsOf([&] { runner.runLayers(shortSeq); });
        const std::size_t twice =
            allocationsOf([&] { runner.runLayers(longSeq); });
        EXPECT_GE(twice, 2 * kSteps);
        EXPECT_LE(twice, once + kSteps)
            << "alpha_inter " << th.inter << " alpha_intra " << th.intra;

        const core::LayerApproxStats &st = runner.stats().front();
        EXPECT_EQ(st.skippedRows > 0.0, th.intra > 0.0);
        EXPECT_EQ(st.breaks > 0, th.inter > 0.0);
    }
}

} // namespace
