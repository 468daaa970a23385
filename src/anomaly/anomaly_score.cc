#include "anomaly/anomaly_score.h"

#include <cmath>

namespace aneci {

std::vector<double> MembershipEntropyScores(const Matrix& p) {
  std::vector<double> scores(p.rows(), 0.0);
  for (int i = 0; i < p.rows(); ++i) {
    const double* row = p.RowPtr(i);
    double h = 0.0;
    for (int c = 0; c < p.cols(); ++c) {
      if (row[c] > 1e-12) h -= row[c] * std::log(row[c]);
    }
    scores[i] = h;
  }
  return scores;
}

}  // namespace aneci
