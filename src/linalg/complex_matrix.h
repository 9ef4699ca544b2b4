/**
 * @file
 * Dense complex matrices sized for quantum unitaries (up to ~2^10).
 *
 * The simulator, the synthesizers, and the distance computations all
 * work on small dense matrices; this class keeps the representation
 * deliberately simple (row-major std::vector) and provides only the
 * operations those clients need.
 */

#pragma once

#include <array>
#include <complex>
#include <cstddef>
#include <string>
#include <vector>

namespace guoq {
namespace linalg {

using Complex = std::complex<double>;

/**
 * out += a * b over row-major storage (@p a is rows x inner, @p b is
 * inner x cols): i-k-j order, skipping zero entries of @p a. The one
 * product kernel behind ComplexMatrix::operator* and the fixed 2x2
 * product below, so both round the same way.
 */
inline void
matmulAccumulate(const Complex *a, const Complex *b, Complex *out,
                 std::size_t rows, std::size_t inner, std::size_t cols)
{
    // i-k-j loop order keeps the inner loop streaming over contiguous
    // rows of both b and out.
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t k = 0; k < inner; ++k) {
            const Complex aik = a[i * inner + k];
            if (aik == Complex{})
                continue;
            const Complex *brow = b + k * cols;
            Complex *orow = out + i * cols;
            for (std::size_t j = 0; j < cols; ++j)
                orow[j] += aik * brow[j];
        }
    }
}

/**
 * A single-qubit unitary by value, row-major — the allocation-free
 * form the 1q-fusion hot path works in.
 */
using Matrix2 = std::array<Complex, 4>;

/** a * b, bit-identical to the same product of 2x2 ComplexMatrix. */
inline Matrix2
product(const Matrix2 &a, const Matrix2 &b)
{
    Matrix2 out{};
    matmulAccumulate(a.data(), b.data(), out.data(), 2, 2, 2);
    return out;
}

/** Row-major dense complex matrix. */
class ComplexMatrix
{
  public:
    /** An empty 0x0 matrix. */
    ComplexMatrix() = default;

    /** A zero-initialized rows x cols matrix. */
    ComplexMatrix(std::size_t rows, std::size_t cols);

    /** Build from an initializer list of rows (for literals in tests). */
    ComplexMatrix(std::initializer_list<std::initializer_list<Complex>> rows);

    /** The n x n identity. */
    static ComplexMatrix identity(std::size_t n);

    /** The 2x2 matrix holding @p m. */
    static ComplexMatrix fromMatrix2(const Matrix2 &m);

    /** The entries of a 2x2 matrix (panics on any other shape). */
    Matrix2 toMatrix2() const;

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    Complex &operator()(std::size_t r, std::size_t c)
    {
        return data_[r * cols_ + c];
    }
    const Complex &operator()(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }

    /** Raw row-major storage (used by the simulator kernels). */
    Complex *data() { return data_.data(); }
    const Complex *data() const { return data_.data(); }

    /** Matrix product this * rhs. */
    ComplexMatrix operator*(const ComplexMatrix &rhs) const;

    /** Elementwise sum / difference. */
    ComplexMatrix operator+(const ComplexMatrix &rhs) const;
    ComplexMatrix operator-(const ComplexMatrix &rhs) const;

    /** Scalar multiple. */
    ComplexMatrix scaled(Complex s) const;

    /** Conjugate transpose. */
    ComplexMatrix dagger() const;

    /** Kronecker (tensor) product this ⊗ rhs. */
    ComplexMatrix kron(const ComplexMatrix &rhs) const;

    /** Trace (requires square). */
    Complex trace() const;

    /** Frobenius norm. */
    double frobeniusNorm() const;

    /** Largest elementwise |a_ij - b_ij|. */
    double maxAbsDiff(const ComplexMatrix &rhs) const;

    /** True when this† * this ≈ I within @p tol. */
    bool isUnitary(double tol = 1e-9) const;

    /** Multi-line human-readable dump (tests and debugging). */
    std::string toString(int prec = 3) const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<Complex> data_;
};

} // namespace linalg
} // namespace guoq
