#include "workloads/benchmarks.hh"

#include <stdexcept>

namespace mflstm {
namespace workloads {

runtime::NetworkShape
BenchmarkSpec::timingShape() const
{
    // The paper's models embed into the hidden dimension; layer 0's
    // input size therefore equals the hidden size.
    return runtime::NetworkShape::stacked(hiddenSize, hiddenSize,
                                          numLayers, length);
}

nn::ModelConfig
BenchmarkSpec::accuracyModelConfig() const
{
    nn::ModelConfig cfg;
    cfg.task = isLanguageModel() ? nn::TaskKind::LanguageModel
                                 : nn::TaskKind::Classification;
    cfg.vocab = vocab;
    cfg.embedSize = modelHidden;
    cfg.hiddenSize = modelHidden;
    cfg.numLayers = numLayers;  // per-layer stats must map 1:1
    cfg.numClasses = numClasses;
    return cfg;
}

const std::vector<BenchmarkSpec> &
tableII()
{
    static const std::vector<BenchmarkSpec> specs = {
        {.name = "IMDB", .abbrev = "SC", .family = TaskFamily::Sentiment,
         .hiddenSize = 512, .numLayers = 3, .length = 80,
         .modelHidden = 48, .modelLength = 24, .vocab = 48,
         .numClasses = 2, .seed = 101},
        {.name = "MR", .abbrev = "SC", .family = TaskFamily::Sentiment,
         .hiddenSize = 256, .numLayers = 1, .length = 22,
         .modelHidden = 40, .modelLength = 16, .vocab = 40,
         .numClasses = 2, .seed = 102},
        {.name = "BABI", .abbrev = "QA", .family = TaskFamily::Qa,
         .hiddenSize = 256, .numLayers = 3, .length = 86,
         .modelHidden = 48, .modelLength = 26, .vocab = 56,
         .numClasses = 4, .seed = 103},
        {.name = "SNLI", .abbrev = "ET", .family = TaskFamily::Entailment,
         .hiddenSize = 300, .numLayers = 2, .length = 100,
         .modelHidden = 48, .modelLength = 24, .vocab = 48,
         .numClasses = 3, .seed = 104},
        {.name = "PTB", .abbrev = "LM", .family = TaskFamily::LanguageModel,
         .hiddenSize = 650, .numLayers = 3, .length = 200,
         .modelHidden = 56, .modelLength = 32, .vocab = 40,
         .numClasses = 0, .seed = 105},
        {.name = "MT", .abbrev = "MT", .family = TaskFamily::Translation,
         .hiddenSize = 500, .numLayers = 4, .length = 50,
         .modelHidden = 48, .modelLength = 24, .vocab = 36,
         .numClasses = 0, .seed = 106},
    };
    return specs;
}

const BenchmarkSpec &
benchmarkByName(const std::string &name)
{
    for (const BenchmarkSpec &spec : tableII()) {
        if (spec.name == name)
            return spec;
    }
    throw std::out_of_range("benchmarkByName: unknown benchmark " + name);
}

} // namespace workloads
} // namespace mflstm
