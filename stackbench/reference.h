/**
 * @file
 * The benchmark's independent reference model (see reference.cc).
 */
#ifndef STACKBENCH_REFERENCE_H_
#define STACKBENCH_REFERENCE_H_

#include <map>
#include <string>
#include <vector>

#include "frontend/llama.h"

namespace stackbench {

/** Plain-loop double-precision forward pass over data weights. */
class ReferenceModel
{
  public:
    /** `weights` in buildLlama parameter order (makeLlamaWeights). */
    ReferenceModel(relax::frontend::LlamaConfig config,
                   std::vector<relax::NDArray> weights);

    /** Causal prefill logits, one [vocab] row per input token. */
    std::vector<std::vector<double>>
    forward(const std::vector<int64_t>& tokens) const;

    /** One greedy step: the argmax token and its lead over the runner-up. */
    struct Step
    {
        int64_t token = -1;
        double margin = 0.0;
    };
    /** Greedy continuation of `tokens` for `steps` tokens. */
    std::vector<Step> greedy(std::vector<int64_t> tokens,
                             int64_t steps) const;

  private:
    const relax::NDArray& weight(const std::string& name) const;

    relax::frontend::LlamaConfig config_;
    std::map<std::string, relax::NDArray> weights_;
};

} // namespace stackbench

#endif // STACKBENCH_REFERENCE_H_
