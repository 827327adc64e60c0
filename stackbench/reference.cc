/**
 * @file
 * Independent correctness oracle: a plain-loop forward pass of the
 * Llama-family decoder (embedding, RMSNorm, per-head causal softmax
 * attention, SiLU/GELU-gated FFN, residuals, final norm, LM head)
 * written straight from the model definition in double precision. It
 * shares nothing with the compiler, VM or libraries — only the weight
 * tensors from makeLlamaWeights and their names — so a fault anywhere
 * in the compiled path shows up as a logit mismatch.
 */
#include <cmath>
#include <map>

#include "bench.h"
#include "reference.h"

namespace stackbench {

namespace {

using Vec = std::vector<double>;

/** y = W x for a row-major [out, in] weight. */
Vec
matvec(const NDArray& w, const Vec& x)
{
    int64_t out = w.shape()[0], in = w.shape()[1];
    const std::vector<double>& data = w.data();
    Vec y((size_t)out, 0.0);
    for (int64_t o = 0; o < out; ++o) {
        double acc = 0.0;
        for (int64_t i = 0; i < in; ++i) acc += data[o * in + i] * x[i];
        y[o] = acc;
    }
    return y;
}

Vec
rmsNorm(const Vec& x, const NDArray& w)
{
    double sq = 0.0;
    for (double v : x) sq += v * v;
    double inv = 1.0 / std::sqrt(sq / (double)x.size() + 1e-5);
    Vec y(x.size());
    for (size_t i = 0; i < x.size(); ++i) y[i] = x[i] * inv * w.at(i);
    return y;
}

double
activation(const std::string& kind, double x)
{
    if (kind == "gelu") return 0.5 * x * (1.0 + std::erf(x / std::sqrt(2.0)));
    return x / (1.0 + std::exp(-x));
}

} // namespace

ReferenceModel::ReferenceModel(frontend::LlamaConfig config,
                               std::vector<NDArray> weights)
    : config_(std::move(config))
{
    std::vector<std::string> names;
    frontend::buildLlama(config_, &names);
    for (size_t i = 0; i < names.size(); ++i) {
        weights_[names[i]] = weights.at(i);
    }
}

const NDArray&
ReferenceModel::weight(const std::string& name) const
{
    return weights_.at(name);
}

std::vector<std::vector<double>>
ReferenceModel::forward(const std::vector<int64_t>& tokens) const
{
    const int64_t h = config_.hiddenSize, heads = config_.numHeads,
                  hd = config_.headDim;
    const size_t n = tokens.size();
    const NDArray& embed = weight("tok_embeddings");
    std::vector<Vec> x(n, Vec((size_t)h));
    for (size_t t = 0; t < n; ++t) {
        for (int64_t i = 0; i < h; ++i) x[t][i] = embed.at(tokens[t] * h + i);
    }
    const double scale = 1.0 / std::sqrt((double)hd);
    for (int64_t layer = 0; layer < config_.numLayers; ++layer) {
        std::string p = "l" + std::to_string(layer) + "_";
        std::vector<Vec> q(n), k(n), v(n);
        for (size_t t = 0; t < n; ++t) {
            Vec normed = rmsNorm(x[t], weight(p + "attn_norm"));
            q[t] = matvec(weight(p + "wq"), normed);
            k[t] = matvec(weight(p + "wk"), normed);
            v[t] = matvec(weight(p + "wv"), normed);
        }
        for (size_t t = 0; t < n; ++t) {
            Vec attn((size_t)(heads * hd), 0.0);
            for (int64_t hh = 0; hh < heads; ++hh) {
                // Causal softmax over positions 0..t of this head.
                Vec score(t + 1);
                double top = -INFINITY;
                for (size_t s = 0; s <= t; ++s) {
                    double dot = 0.0;
                    for (int64_t d = 0; d < hd; ++d) {
                        dot += q[t][hh * hd + d] * k[s][hh * hd + d];
                    }
                    score[s] = dot * scale;
                    top = std::max(top, score[s]);
                }
                double total = 0.0;
                for (double& sc : score) total += (sc = std::exp(sc - top));
                for (size_t s = 0; s <= t; ++s) {
                    for (int64_t d = 0; d < hd; ++d) {
                        attn[hh * hd + d] +=
                            score[s] / total * v[s][hh * hd + d];
                    }
                }
            }
            Vec o = matvec(weight(p + "wo"), attn);
            for (int64_t i = 0; i < h; ++i) x[t][i] += o[i];
            Vec normed = rmsNorm(x[t], weight(p + "ffn_norm"));
            Vec gate = matvec(weight(p + "w_gate"), normed);
            Vec up = matvec(weight(p + "w_up"), normed);
            for (size_t i = 0; i < gate.size(); ++i) {
                gate[i] = activation(config_.activation, gate[i]) * up[i];
            }
            Vec down = matvec(weight(p + "w_down"), gate);
            for (int64_t i = 0; i < h; ++i) x[t][i] += down[i];
        }
    }
    std::vector<Vec> logits(n);
    for (size_t t = 0; t < n; ++t) {
        logits[t] = matvec(weight("lm_head"),
                           rmsNorm(x[t], weight("final_norm")));
    }
    return logits;
}

std::vector<ReferenceModel::Step>
ReferenceModel::greedy(std::vector<int64_t> tokens, int64_t steps) const
{
    std::vector<Step> out;
    for (int64_t i = 0; i < steps; ++i) {
        Vec last = forward(tokens).back();
        Step step;
        double best = -INFINITY, second = -INFINITY;
        for (size_t id = 0; id < last.size(); ++id) {
            if (last[id] > best) {
                second = best;
                best = last[id];
                step.token = (int64_t)id;
            } else if (last[id] > second) {
                second = last[id];
            }
        }
        step.margin = best - second;
        out.push_back(step);
        tokens.push_back(step.token);
    }
    return out;
}

} // namespace stackbench
