// Laplacian Eigenmaps (Belkin & Niyogi 2003) — the classical spectral
// embedding the paper's related work traces modern methods back to. Embeds
// nodes with the eigenvectors of the symmetric normalised Laplacian
// L = I - D^{-1/2} A D^{-1/2} corresponding to the smallest non-trivial
// eigenvalues.
#ifndef ANECI_EMBED_SPECTRAL_H_
#define ANECI_EMBED_SPECTRAL_H_

#include "embed/embedder.h"

namespace aneci {

class LaplacianEigenmaps final : public Embedder {
 public:
  struct Options {
    int dim = 16;
    /// Krylov steps for the Lanczos solver; 0 = automatic.
    int lanczos_steps = 0;
  };

  explicit LaplacianEigenmaps(const Options& options) : options_(options) {}

  std::string name() const override { return "LapEigen"; }

 private:
  /// Closed-form spectral solve: EmbedOptions::epochs is ignored and the
  /// TrainObserver is never called.
  Matrix EmbedImpl(const Graph& graph, const EmbedOptions& options) override;

  Options options_;
};

}  // namespace aneci

#endif  // ANECI_EMBED_SPECTRAL_H_
