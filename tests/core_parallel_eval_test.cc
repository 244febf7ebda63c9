/**
 * @file
 * Tests for sequence-parallel evaluation (DESIGN.md §18): the driver of
 * nn/parallel.hh visits every index exactly once and rethrows the lowest
 * failing index's exception; the parallel accuracy loops (exact and
 * approximate) and the calibration (link-predictor counts and profile)
 * equal their serial forms bit for bit, statistics included.
 */

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "core/approx.hh"
#include "nn/parallel.hh"
#include "support/reference.hh"
#include "tensor/ops.hh"
#include "tensor/rng.hh"

namespace {

using namespace mflstm;
using namespace mflstm::core;

nn::ModelConfig
config(nn::TaskKind task)
{
    nn::ModelConfig cfg;
    cfg.task = task;
    cfg.vocab = 16;
    cfg.embedSize = 6;
    cfg.hiddenSize = 10;
    cfg.numLayers = 2;
    cfg.numClasses = 3;
    return cfg;
}

/**
 * A model whose input weights are scaled up 8x: at initialisation every
 * link relevance sits at its cap, and larger input projections saturate
 * some gates, so the relevances spread and a quantile threshold breaks
 * some links but not all.
 */
nn::LstmModel
scaledModel(nn::TaskKind task, std::uint64_t seed)
{
    nn::LstmModel m(config(task), seed);
    for (nn::LstmLayerParams &p : m.layers())
        for (tensor::Matrix *w : {&p.wf, &p.wi, &p.wc, &p.wo})
            for (std::size_t r = 0; r < w->rows(); ++r)
                for (std::size_t c = 0; c < w->cols(); ++c)
                    (*w)(r, c) *= 8.0f;
    return m;
}

/** n sequences of lengths 1..max_len. */
std::vector<std::vector<std::int32_t>>
sequences(std::size_t n, std::size_t max_len, std::uint64_t seed)
{
    tensor::Rng rng(seed);
    std::vector<std::vector<std::int32_t>> seqs(n);
    for (auto &s : seqs) {
        const auto len = static_cast<std::size_t>(
            rng.integer(1, static_cast<std::int64_t>(max_len)));
        for (std::size_t t = 0; t < len; ++t)
            s.push_back(static_cast<std::int32_t>(rng.integer(0, 15)));
    }
    return seqs;
}

std::vector<nn::Sample>
samples(std::size_t n, std::uint64_t seed)
{
    tensor::Rng rng(seed + 1);
    std::vector<nn::Sample> data;
    for (auto &tokens : sequences(n, 12, seed)) {
        nn::Sample s;
        s.tokens = std::move(tokens);
        s.label = static_cast<std::int32_t>(rng.integer(0, 2));
        data.push_back(std::move(s));
    }
    return data;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

void
expectSameStats(const std::vector<LayerApproxStats> &a,
                const std::vector<LayerApproxStats> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t l = 0; l < a.size(); ++l) {
        EXPECT_EQ(a[l].sequences, b[l].sequences) << "layer " << l;
        EXPECT_EQ(a[l].links, b[l].links) << "layer " << l;
        EXPECT_EQ(a[l].breaks, b[l].breaks) << "layer " << l;
        EXPECT_EQ(a[l].cells, b[l].cells) << "layer " << l;
        EXPECT_TRUE(sameBits(a[l].skippedRows, b[l].skippedRows))
            << "layer " << l << ": " << a[l].skippedRows << " vs "
            << b[l].skippedRows;
    }
}

/**
 * A calibrated runner with both approximations active: the thresholds
 * are profile quantiles, so some links break and some rows skip.
 */
ApproxRunner
approximatingRunner(const nn::LstmModel &model, quant::QuantMode q)
{
    ApproxRunner runner(model);
    const auto prof = runner.calibrate(sequences(24, 10, 5));
    runner.setQuantMode(q);
    runner.setThresholds(prof.relevanceQuantile(0.3),
                         prof.outputGateQuantile(0.3));
    return runner;
}

void
expectApproximating(const std::vector<LayerApproxStats> &stats)
{
    std::size_t breaks = 0;
    double skipped = 0.0;
    for (const LayerApproxStats &st : stats) {
        breaks += st.breaks;
        skipped += st.skippedRows;
    }
    EXPECT_GT(breaks, 0u);
    EXPECT_GT(skipped, 0.0);
}

TEST(ParallelEval, DriverVisitsEveryIndexOnce)
{
    constexpr std::size_t n = 23;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                      std::size_t{3}, std::size_t{8},
                                      n + 3}) {
        std::vector<std::atomic<int>> visits(n);
        std::atomic<bool> worker_in_range{true};
        nn::forEachSequence(n, workers,
                            [&](std::size_t w, std::size_t i) {
            if (w >= workers)
                worker_in_range = false;
            ++visits[i];
        });
        EXPECT_TRUE(worker_in_range) << workers << " workers";
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(visits[i].load(), 1)
                << "index " << i << ", " << workers << " workers";
    }
}

TEST(ParallelEval, OneWorkerRunsInlineOnTheCaller)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::size_t calls = 0;
    nn::forEachSequence(5, 1, [&](std::size_t w, std::size_t) {
        EXPECT_EQ(w, 0u);
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++calls;
    });
    EXPECT_EQ(calls, 5u);
    nn::forEachSequence(0, 4, [&](std::size_t, std::size_t) { ++calls; });
    EXPECT_EQ(calls, 5u);
}

TEST(ParallelEval, WorkerCountFollowsTheHardware)
{
    const std::size_t hw =
        std::max(1u, std::thread::hardware_concurrency());
    EXPECT_EQ(nn::sequenceWorkers(0), 1u);
    EXPECT_EQ(nn::sequenceWorkers(1), 1u);
    EXPECT_EQ(nn::sequenceWorkers(1000), hw);
}

TEST(ParallelEval, RethrowsTheLowestFailingIndex)
{
    for (const std::size_t workers : {1, 2, 4}) {
        try {
            nn::forEachSequence(40, workers,
                                [](std::size_t, std::size_t i) {
                if (i == 7 || i == 11 || i == 30)
                    throw std::runtime_error(std::to_string(i));
            });
            ADD_FAILURE() << "no exception, " << workers << " workers";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "7") << workers << " workers";
        }
    }
}

TEST(ParallelEval, ClassificationMatchesSerialLoop)
{
    const nn::LstmModel model = scaledModel(nn::TaskKind::Classification, 31);
    const auto data = samples(61, 9);
    for (const auto q : {quant::QuantMode::Fp32, quant::QuantMode::Int8}) {
        ApproxRunner runner = approximatingRunner(model, q);
        ApproxRunner serial = runner;
        // Twice: the second pass adds onto non-zero statistics.
        for (int pass = 0; pass < 2; ++pass) {
            std::size_t correct = 0;
            for (const nn::Sample &s : data)
                correct += tensor::argmax(serial.classify(s.tokens)
                                              .span()) ==
                           static_cast<std::size_t>(s.label);
            const double want = static_cast<double>(correct) /
                                static_cast<double>(data.size());
            const double got = approxClassificationAccuracy(runner, data);
            EXPECT_TRUE(sameBits(got, want)) << got << " vs " << want;
            expectSameStats(runner.stats(), serial.stats());
        }
        expectApproximating(runner.stats());
        EXPECT_EQ(runner.stats()[0].sequences, 2 * data.size());
    }
}

TEST(ParallelEval, LanguageModelMatchesSerialLoop)
{
    const nn::LstmModel model = scaledModel(nn::TaskKind::LanguageModel, 32);
    const auto seqs = sequences(47, 14, 10);  // some of length 1: skipped
    for (const auto q : {quant::QuantMode::Fp32, quant::QuantMode::Int8}) {
        ApproxRunner runner = approximatingRunner(model, q);
        ApproxRunner serial = runner;
        for (int pass = 0; pass < 2; ++pass) {
            std::size_t correct = 0, total = 0;
            for (const auto &seq : seqs) {
                if (seq.size() < 2)
                    continue;
                const auto logits =
                    serial.lmLogits(std::span(seq.data(), seq.size() - 1));
                for (std::size_t t = 0; t < logits.size(); ++t) {
                    correct += tensor::argmax(logits[t].span()) ==
                               static_cast<std::size_t>(seq[t + 1]);
                    ++total;
                }
            }
            const double want = static_cast<double>(correct) /
                                static_cast<double>(total);
            const double got = approxLmNextTokenAccuracy(runner, seqs);
            EXPECT_TRUE(sameBits(got, want)) << got << " vs " << want;
            expectSameStats(runner.stats(), serial.stats());
        }
        expectApproximating(runner.stats());
    }
}

TEST(ParallelEval, ExactAccuracyMatchesSerialLoop)
{
    const nn::LstmModel cls = scaledModel(nn::TaskKind::Classification, 33);
    const auto data = samples(53, 11);
    std::size_t correct = 0;
    for (const nn::Sample &s : data)
        correct += tensor::argmax(cls.classify(s.tokens).span()) ==
                   static_cast<std::size_t>(s.label);
    EXPECT_TRUE(sameBits(nn::classificationAccuracy(cls, data),
                         static_cast<double>(correct) /
                             static_cast<double>(data.size())));

    const nn::LstmModel lm = scaledModel(nn::TaskKind::LanguageModel, 34);
    const auto seqs = sequences(41, 14, 12);
    std::size_t lm_correct = 0, lm_total = 0;
    for (const auto &seq : seqs) {
        if (seq.size() < 2)
            continue;
        const auto logits =
            lm.lmLogits(std::span(seq.data(), seq.size() - 1));
        for (std::size_t t = 0; t < logits.size(); ++t) {
            lm_correct += tensor::argmax(logits[t].span()) ==
                          static_cast<std::size_t>(seq[t + 1]);
            ++lm_total;
        }
    }
    EXPECT_TRUE(sameBits(nn::lmNextTokenAccuracy(lm, seqs),
                         static_cast<double>(lm_correct) /
                             static_cast<double>(lm_total)));
}

TEST(ParallelEval, EmptySequenceThrowsAndLeavesStatsUnchanged)
{
    const nn::LstmModel model = scaledModel(nn::TaskKind::Classification, 35);
    ApproxRunner runner =
        approximatingRunner(model, quant::QuantMode::Fp32);
    auto data = samples(40, 13);
    approxClassificationAccuracy(runner, data);
    const std::vector<LayerApproxStats> before = runner.stats();

    for (const std::size_t k : {std::size_t{0}, std::size_t{17},
                                data.size() - 1}) {
        auto bad = data;
        bad[k].tokens.clear();
        EXPECT_THROW(approxClassificationAccuracy(runner, bad),
                     std::invalid_argument)
            << "empty sequence at " << k;
        expectSameStats(runner.stats(), before);
        EXPECT_THROW(nn::classificationAccuracy(model, bad),
                     std::invalid_argument)
            << "empty sequence at " << k;
    }
}

/** Whole vectors compared byte for byte. */
template <typename V>
bool
sameBytes(const V &a, const V &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0);
}

void
expectSameProfile(const ApproxRunner::CalibrationProfile &got,
                  const ApproxRunner::CalibrationProfile &want)
{
    EXPECT_TRUE(sameBytes(got.relevances, want.relevances));
    ASSERT_EQ(got.layerRelevances.size(), want.layerRelevances.size());
    for (std::size_t l = 0; l < got.layerRelevances.size(); ++l)
        EXPECT_TRUE(sameBytes(got.layerRelevances[l],
                              want.layerRelevances[l]))
            << "layer " << l;
    EXPECT_TRUE(sameBytes(got.outputGates, want.outputGates));
}

TEST(ParallelEval, ProfileEqualsOneWorkerRuns)
{
    // Calibrating on one sequence runs one worker; pooling those single-
    // sequence profiles and sorting is the serial scan.
    const nn::LstmModel model = scaledModel(nn::TaskKind::Classification, 36);
    for (const auto q : {quant::QuantMode::Fp32, quant::QuantMode::Int8}) {
        ApproxRunner runner(model);
        runner.setQuantMode(q);
        auto seqs = sequences(29, 12, 14);
        seqs[3].clear();  // skipped, as in the serial scan

        ApproxRunner::CalibrationProfile want;
        want.layerRelevances.resize(model.layers().size());
        for (const auto &seq : seqs) {
            ApproxRunner scratch = runner;
            const auto one = scratch.calibrate({seq});
            auto add = [](auto &to, const auto &from) {
                to.insert(to.end(), from.begin(), from.end());
            };
            add(want.relevances, one.relevances);
            for (std::size_t l = 0; l < one.layerRelevances.size(); ++l)
                add(want.layerRelevances[l], one.layerRelevances[l]);
            add(want.outputGates, one.outputGates);
        }
        std::sort(want.relevances.begin(), want.relevances.end());
        for (auto &xs : want.layerRelevances)
            std::sort(xs.begin(), xs.end());
        std::sort(want.outputGates.begin(), want.outputGates.end());

        const auto got = runner.calibrate(seqs);
        EXPECT_FALSE(got.outputGates.empty());
        expectSameProfile(got, want);
    }
}

/** Every bin count, sample count and Eq. 6 prediction, layer by layer. */
void
expectSamePredictors(const std::vector<LinkPredictor> &got,
                     const std::vector<LinkPredictor> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t l = 0; l < got.size(); ++l) {
        EXPECT_EQ(got[l].samples(), want[l].samples()) << "layer " << l;
        const auto same_counts = [](const tensor::VectorDistribution &a,
                                    const tensor::VectorDistribution &b) {
            if (a.dim() != b.dim() || a.samples() != b.samples())
                return false;
            for (std::size_t e = 0; e < a.dim(); ++e) {
                const tensor::Histogram &x = a.element(e), &y = b.element(e);
                if (x.samples() != y.samples() || x.bins() != y.bins())
                    return false;
                for (std::size_t i = 0; i < x.bins(); ++i)
                    if (x.binCount(i) != y.binCount(i))
                        return false;
            }
            return true;
        };
        EXPECT_TRUE(same_counts(got[l].hDistribution(),
                                want[l].hDistribution()))
            << "layer " << l << " h";
        EXPECT_TRUE(same_counts(got[l].cDistribution(),
                                want[l].cDistribution()))
            << "layer " << l << " c";
        EXPECT_TRUE(sameBytes(got[l].predictedH(), want[l].predictedH()))
            << "layer " << l;
        EXPECT_TRUE(sameBytes(got[l].predictedC(), want[l].predictedC()))
            << "layer " << l;
    }
}

TEST(ParallelEval, CalibrateEqualsSerialReference)
{
    const std::size_t hw = nn::sequenceWorkers(1000);
    for (const auto task :
         {nn::TaskKind::Classification, nn::TaskKind::LanguageModel}) {
        const nn::LstmModel model = scaledModel(task, 37);
        for (const auto q :
             {quant::QuantMode::Fp32, quant::QuantMode::Int8}) {
            ApproxRunner fresh(model);
            fresh.setQuantMode(q);

            auto many = sequences(29, 12, 15);
            many[5].clear();  // skipped by both
            // One worker; fewer sequences than workers; every worker.
            for (const auto &seqs :
                 {sequences(1, 12, 16), sequences(hw > 1 ? hw - 1 : 1, 12, 17),
                  many}) {
                ApproxRunner runner = fresh;
                const test::SerialCalibration want =
                    test::serialCalibrate(runner, seqs);
                const auto got = runner.calibrate(seqs);
                EXPECT_TRUE(runner.calibrated());
                expectSamePredictors(runner.predictors(), want.predictors);
                expectSameProfile(got, want.profile);
            }

            // A second calibrate() adds to the counts of the first; its
            // profile is that of its own sequences.
            const auto first = sequences(7, 12, 18);
            auto both = first;
            both.insert(both.end(), many.begin(), many.end());
            ApproxRunner runner = fresh;
            runner.calibrate(first);
            const auto second = runner.calibrate(many);
            expectSamePredictors(runner.predictors(),
                                 test::serialCalibrate(fresh, both)
                                     .predictors);
            expectSameProfile(second,
                              test::serialCalibrate(fresh, many).profile);
        }
    }
}

} // namespace
