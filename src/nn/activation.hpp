// Activation functions tunable by the hyperparameter search.
//
// The paper's genome selects the descriptor-network and fitting-network
// activation functions from {"relu", "relu6", "softplus", "sigmoid", "tanh"}
// (section 2.2.1).  Every one of them is implemented for both plain doubles
// and tape variables (the autodiff oracle).  The batched MLP kernels run
// whole layers through activate_layer; the scalar apply / derivative /
// second_derivative functions are its oracle.
#pragma once

#include <span>
#include <string>

#include "ad/tape.hpp"

namespace dpho::nn {

enum class Activation { kRelu, kRelu6, kSoftplus, kSigmoid, kTanh, kIdentity };

/// The five candidate activations, in the genome's decode order.
inline constexpr Activation kCandidateActivations[] = {
    Activation::kRelu, Activation::kRelu6, Activation::kSoftplus,
    Activation::kSigmoid, Activation::kTanh};
inline constexpr int kNumCandidateActivations = 5;

/// Parses "relu"/"relu6"/"softplus"/"sigmoid"/"tanh"/"identity"; throws
/// ValueError otherwise.
Activation activation_from_string(const std::string& name);
std::string to_string(Activation activation);

double apply(Activation activation, double x);
ad::Var apply(Activation activation, ad::Var x);

/// Analytical first derivative.
double derivative(Activation activation, double x);

/// Analytical second derivative.  The analytic training path needs it for the
/// force-loss term (differentiating through F = -dE/dx differentiates every
/// activation twice).  Kinked activations (relu, relu6) use the same
/// subgradient convention as the tape: the step functions have derivative 0
/// everywhere, so their second derivative is identically 0.
double second_derivative(Activation activation, double x);

/// One layer's activation pass over the pre-activations `z`: writes
/// y = sigma(z), sp = sigma'(z) and, when `spp` is non-empty,
/// spp = sigma''(z).  The activation is resolved once per call, and one
/// transcendental per element (tanh, or the sigmoid) serves all three
/// outputs; softplus computes its value besides.  Every output is bitwise
/// equal to apply / derivative / second_derivative on the same element.
/// y, sp (and a non-empty spp) must have z.size() entries.
void activate_layer(Activation activation, std::span<const double> z,
                    std::span<double> y, std::span<double> sp,
                    std::span<double> spp);

}  // namespace dpho::nn
