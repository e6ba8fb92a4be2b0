#include "vfl/logistic_regression.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "common/random.h"

namespace metaleak {

namespace {

double Sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

}  // namespace

Result<FeatureEncoder> FeatureEncoder::Fit(const Relation& relation) {
  FeatureEncoder encoder;
  for (size_t c = 0; c < relation.num_columns(); ++c) {
    const Attribute& attr = relation.schema().attribute(c);
    AttributeEncoding enc;
    enc.name = attr.name;
    const std::vector<Value>& col = relation.column(c);
    bool numeric = attr.semantic == SemanticType::kContinuous;
    enc.numeric = numeric;
    if (numeric) {
      double sum = 0.0;
      size_t n = 0;
      for (const Value& v : col) {
        if (v.is_null() || !v.is_numeric()) continue;
        sum += v.AsNumeric();
        ++n;
      }
      enc.mean = n == 0 ? 0.0 : sum / static_cast<double>(n);
      double var = 0.0;
      for (const Value& v : col) {
        if (v.is_null() || !v.is_numeric()) continue;
        double d = v.AsNumeric() - enc.mean;
        var += d * d;
      }
      enc.stddev = n < 2 ? 1.0 : std::sqrt(var / static_cast<double>(n - 1));
      if (enc.stddev < 1e-12) enc.stddev = 1.0;
      encoder.num_features_ += 1;
    } else {
      std::unordered_set<Value> seen;
      for (const Value& v : col) {
        if (v.is_null()) continue;
        if (seen.insert(v).second) enc.categories.push_back(v);
      }
      std::sort(enc.categories.begin(), enc.categories.end());
      encoder.num_features_ += enc.categories.size();
    }
    encoder.attributes_.push_back(std::move(enc));
  }
  return encoder;
}

Result<FeatureMatrix> FeatureEncoder::Transform(
    const Relation& relation) const {
  if (relation.num_columns() != attributes_.size()) {
    return Status::Invalid("relation arity does not match encoder");
  }
  FeatureMatrix out;
  out.num_rows = relation.num_rows();
  out.num_features = num_features_;
  out.data.assign(out.num_rows * out.num_features, 0.0);

  for (size_t r = 0; r < out.num_rows; ++r) {
    size_t f = 0;
    for (size_t c = 0; c < attributes_.size(); ++c) {
      const AttributeEncoding& enc = attributes_[c];
      const Value& v = relation.at(r, c);
      if (enc.numeric) {
        double x = (v.is_null() || !v.is_numeric()) ? enc.mean
                                                    : v.AsNumeric();
        out.data[r * out.num_features + f] = (x - enc.mean) / enc.stddev;
        f += 1;
      } else {
        if (!v.is_null()) {
          auto it = std::lower_bound(enc.categories.begin(),
                                     enc.categories.end(), v);
          if (it != enc.categories.end() && *it == v) {
            size_t offset =
                static_cast<size_t>(it - enc.categories.begin());
            out.data[r * out.num_features + f + offset] = 1.0;
          }
        }
        f += enc.categories.size();
      }
    }
  }
  return out;
}

namespace {

// Partial scores one party computes locally: X * w.
void PartialScores(const FeatureMatrix& x, const std::vector<double>& w,
                   std::vector<double>* out) {
  out->assign(x.num_rows, 0.0);
  for (size_t r = 0; r < x.num_rows; ++r) {
    double acc = 0.0;
    for (size_t f = 0; f < x.num_features; ++f) {
      acc += x.At(r, f) * w[f];
    }
    (*out)[r] = acc;
  }
}

// Local gradient given the exchanged residuals: X^T * residual / n.
void LocalGradient(const FeatureMatrix& x,
                   const std::vector<double>& residuals, double l2,
                   const std::vector<double>& w, std::vector<double>* grad) {
  grad->assign(x.num_features, 0.0);
  for (size_t r = 0; r < x.num_rows; ++r) {
    for (size_t f = 0; f < x.num_features; ++f) {
      (*grad)[f] += x.At(r, f) * residuals[r];
    }
  }
  double inv_n = 1.0 / static_cast<double>(std::max<size_t>(1, x.num_rows));
  for (size_t f = 0; f < x.num_features; ++f) {
    (*grad)[f] = (*grad)[f] * inv_n + l2 * w[f];
  }
}

}  // namespace

Result<VflModelN> TrainVerticalLogisticRegressionN(
    const std::vector<const Relation*>& slices,
    const std::vector<int>& labels, const VflTrainOptions& options) {
  if (slices.empty()) {
    return Status::Invalid("training needs at least one feature slice");
  }
  for (const Relation* slice : slices) {
    if (slice == nullptr) {
      return Status::Invalid("feature slice is null");
    }
    if (slice->num_rows() != labels.size()) {
      return Status::Invalid(
          "feature slices and labels must be row-aligned");
    }
  }
  if (labels.empty()) {
    return Status::Invalid("cannot train on an empty dataset");
  }
  for (int y : labels) {
    if (y != 0 && y != 1) {
      return Status::Invalid("labels must be 0/1");
    }
  }

  const size_t parties = slices.size();
  VflModelN model;
  model.encoders.reserve(parties);
  std::vector<FeatureMatrix> x(parties);
  for (size_t s = 0; s < parties; ++s) {
    METALEAK_ASSIGN_OR_RETURN(FeatureEncoder encoder,
                              FeatureEncoder::Fit(*slices[s]));
    METALEAK_ASSIGN_OR_RETURN(x[s], encoder.Transform(*slices[s]));
    model.encoders.push_back(std::move(encoder));
  }

  // Weights drawn slice-by-slice in party order from one stream.
  Rng rng(options.seed);
  model.weights.resize(parties);
  for (size_t s = 0; s < parties; ++s) {
    model.weights[s].resize(x[s].num_features);
    for (double& w : model.weights[s]) w = rng.Normal(0.0, 0.01);
  }

  const size_t n = labels.size();
  std::vector<std::vector<double>> scores(parties);
  std::vector<double> residuals(n);
  std::vector<double> grad;

  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    // Each party computes partial scores locally; the label holder
    // combines them, forms residuals, and sends residuals back — the
    // only per-row quantities crossing the boundary.
    for (size_t s = 0; s < parties; ++s) {
      PartialScores(x[s], model.weights[s], &scores[s]);
    }

    double loss = 0.0;
    double bias_grad = 0.0;
    for (size_t r = 0; r < n; ++r) {
      // Summed in ascending party order, bias last; the Figure-1 golden
      // snapshot in tests/topology_test.cc pins this order.
      double z = scores[0][r];
      for (size_t s = 1; s < parties; ++s) z += scores[s][r];
      z += model.bias;
      double p = Sigmoid(z);
      double y = static_cast<double>(labels[r]);
      residuals[r] = p - y;
      bias_grad += residuals[r];
      // Numerically stable log-loss.
      loss += std::max(z, 0.0) - z * y + std::log1p(std::exp(-std::abs(z)));
    }
    model.loss_history.push_back(loss / static_cast<double>(n));

    for (size_t s = 0; s < parties; ++s) {
      LocalGradient(x[s], residuals, options.l2, model.weights[s], &grad);
      for (size_t f = 0; f < x[s].num_features; ++f) {
        model.weights[s][f] -= options.learning_rate * grad[f];
      }
    }
    model.bias -=
        options.learning_rate * bias_grad / static_cast<double>(n);
  }
  return model;
}

Result<std::vector<double>> PredictProbabilitiesN(
    const VflModelN& model, const std::vector<const Relation*>& slices) {
  if (slices.size() != model.encoders.size() ||
      slices.size() != model.weights.size() || slices.empty()) {
    return Status::Invalid("slice count does not match the model");
  }
  for (const Relation* slice : slices) {
    if (slice == nullptr) {
      return Status::Invalid("feature slice is null");
    }
    if (slice->num_rows() != slices[0]->num_rows()) {
      return Status::Invalid("feature slices must be row-aligned");
    }
  }
  const size_t parties = slices.size();
  std::vector<std::vector<double>> scores(parties);
  for (size_t s = 0; s < parties; ++s) {
    METALEAK_ASSIGN_OR_RETURN(FeatureMatrix xs,
                              model.encoders[s].Transform(*slices[s]));
    PartialScores(xs, model.weights[s], &scores[s]);
  }
  const size_t n = slices[0]->num_rows();
  std::vector<double> out(n);
  for (size_t r = 0; r < n; ++r) {
    double z = scores[0][r];
    for (size_t s = 1; s < parties; ++s) z += scores[s][r];
    out[r] = Sigmoid(z + model.bias);
  }
  return out;
}

Result<double> AccuracyN(const VflModelN& model,
                         const std::vector<const Relation*>& slices,
                         const std::vector<int>& labels) {
  METALEAK_ASSIGN_OR_RETURN(std::vector<double> probs,
                            PredictProbabilitiesN(model, slices));
  if (probs.size() != labels.size()) {
    return Status::Invalid("labels not aligned with features");
  }
  if (labels.empty()) return 0.0;
  size_t correct = 0;
  for (size_t r = 0; r < labels.size(); ++r) {
    int pred = probs[r] >= 0.5 ? 1 : 0;
    if (pred == labels[r]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(labels.size());
}

}  // namespace metaleak
