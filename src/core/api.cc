#include "core/api.hh"

#include <cmath>
#include <stdexcept>

namespace mflstm {
namespace core {

MemoryFriendlyLstm::MemoryFriendlyLstm(const nn::LstmModel &accuracy_model,
                                       const Config &cfg)
    : cfg_(cfg), executor_(cfg_.gpu, cfg_.observer),
      runner_(accuracy_model)
{
    if (cfg_.timingShape.layers.empty())
        throw std::invalid_argument(
            "MemoryFriendlyLstm: empty timing shape");
    if (cfg_.timingShape.layers.size() !=
        accuracy_model.layers().size()) {
        throw std::invalid_argument(
            "MemoryFriendlyLstm: timing shape and accuracy model must "
            "have the same layer count");
    }

    baseline_ = executor_.run(cfg_.timingShape, runtime::ExecutionPlan{});
}

const MemoryFriendlyLstm::Calibration &
MemoryFriendlyLstm::calibrate(
    const std::vector<std::vector<std::int32_t>> &train_seqs)
{
    obs::Observer *obs = cfg_.observer;
    auto ph = obs::Observer::phase(obs, "calibrate");
    Calibration cal;

    {
        // Fig. 10 op 1: tissue-size sweep on the target GPU.
        auto sub = obs::Observer::phase(obs, "mts-sweep");
        cal.mtsSweep =
            findMts(executor_, cfg_.timingShape.layers.front());
        cal.mts = cal.mtsSweep.mts;
    }

    {
        // Fig. 10 ops 4 and 2: link predictors from the training
        // distribution, and threshold upper limits from the profile
        // that the same exact forward collects.
        auto sub = obs::Observer::phase(obs, "exact-calibration");
        cal.profile = runner_.calibrate(train_seqs);
        cal.limits = findThresholdLimits(
            cal.profile, cal.mts, cfg_.timingShape.layers.front().length);
    }

    calibration_ = std::move(cal);
    return *calibration_;
}

const MemoryFriendlyLstm::Calibration &
MemoryFriendlyLstm::calibration() const
{
    if (!calibration_)
        throw std::logic_error(
            "MemoryFriendlyLstm: calibrate() has not run");
    return *calibration_;
}

void
MemoryFriendlyLstm::setThresholds(const ThresholdSet &set)
{
    // May throw (alphaInter before calibrate()); only commit after.
    runner_.setThresholds(set.alphaInter, set.alphaIntra);
    runner_.setQuantMode(set.quant);
    runner_.resetStats();
    thresholds_ = set;
}

runtime::ExecutionPlan
MemoryFriendlyLstm::planFromStats(
    const TimingOptions &opts,
    const std::vector<LayerApproxStats> &stats,
    quant::QuantMode quant_mode, const runtime::NetworkExecutor &exec,
    obs::Observer *observer) const
{
    if (opts.kind == runtime::PlanKind::Baseline ||
        opts.kind == runtime::PlanKind::ZeroPruning)
        return runtime::ExecutionPlan::preset(
            opts.kind, cfg_.timingShape.layers.size(), quant_mode, {}, {},
            opts.pruneFraction);

    const std::size_t model_hidden =
        runner_.model().config().hiddenSize;
    const std::size_t mts =
        presetMts(exec, opts.kind, stats, cfg_.timingShape.layers.front(),
                  calibration().mts, model_hidden);

    auto ph = obs::Observer::phase(observer, "planning");
    return buildPlan(opts.kind, stats, cfg_.timingShape, mts,
                     model_hidden, quant_mode);
}

TimingOutcome
MemoryFriendlyLstm::evaluateTiming(const TimingOptions &opts) const
{
    // An observer override gets its own executor so the configured
    // sink sees nothing from this evaluation.
    std::optional<runtime::NetworkExecutor> local;
    if (opts.observer)
        local.emplace(cfg_.gpu, opts.observer);
    const runtime::NetworkExecutor &exec = local ? *local : executor_;
    obs::Observer *observer =
        opts.observer ? opts.observer : cfg_.observer;

    TimingOutcome out;

    // The cached baseline is the fp32 Algorithm 1 run; a quantized
    // Baseline (the "quantization alone" column of Fig. 16) must go
    // through the executor so the lowering prices the narrower weights.
    if (opts.kind == runtime::PlanKind::Baseline &&
        thresholds_.quant == quant::QuantMode::Fp32) {
        out.report = baseline_;
        out.plan = runtime::ExecutionPlan::preset(
            opts.kind, cfg_.timingShape.layers.size(),
            quant::QuantMode::Fp32);
        out.speedup = 1.0;
        out.energySavingPct = 0.0;
        return out;
    }

    out.plan = planFromStats(opts, runner_.stats(), thresholds_.quant,
                             exec, observer);
    out.report = exec.run(cfg_.timingShape, out.plan);
    out.speedup = runtime::speedup(baseline_, out.report);
    out.energySavingPct = runtime::energySavingPct(baseline_, out.report);
    return out;
}

MemoryFriendlyLstm::RungSnapshot
MemoryFriendlyLstm::snapshotRung(
    const ThresholdSet &set,
    const std::vector<std::vector<std::int32_t>> &eval_seqs,
    const TimingOptions &opts) const
{
    std::optional<runtime::NetworkExecutor> local;
    if (opts.observer)
        local.emplace(cfg_.gpu, opts.observer);
    const runtime::NetworkExecutor &exec = local ? *local : executor_;
    obs::Observer *observer =
        opts.observer ? opts.observer : cfg_.observer;

    RungSnapshot snap{set, {}, runner_};
    snap.runner.setThresholds(set.alphaInter, set.alphaIntra);
    snap.runner.setQuantMode(set.quant);
    snap.runner.resetStats();

    const bool needs_stats =
        opts.kind != runtime::PlanKind::Baseline &&
        opts.kind != runtime::PlanKind::ZeroPruning;
    if (needs_stats) {
        if (eval_seqs.empty())
            throw std::invalid_argument(
                "snapshotRung: statistics-driven plan kind needs "
                "eval sequences");
        auto ph = obs::Observer::phase(observer, "rung-eval");
        const bool lm = runner_.model().config().task ==
                        nn::TaskKind::LanguageModel;
        for (const auto &s : eval_seqs) {
            if (lm)
                snap.runner.lmLogits(s);
            else
                snap.runner.classify(s);
        }
    }
    snap.plan = planFromStats(opts, snap.runner.stats(), set.quant, exec,
                              observer);
    return snap;
}

} // namespace core
} // namespace mflstm
