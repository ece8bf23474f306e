//! Activation functions.


/// Element-wise activation applied after a dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit: `max(0, x)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Identity (linear output layer).
    Identity,
}

impl Activation {
    /// Applies the activation to a pre-activation value.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Identity => x,
        }
    }

    /// Derivative of the activation, expressed in terms of its
    /// **output** `y = apply(x)`: `1 − y²` for tanh, `1{y > 0}` for ReLU.
    /// Backprop reads the stored forward output instead of evaluating
    /// `tanh` a second time; the result is bit for bit the derivative at
    /// the pre-activation `x`.
    #[inline]
    pub fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Identity => 1.0,
        }
    }

    /// The derivative at the pre-activation `x`, as backprop computed it
    /// before it read the stored output: the test-only reference the
    /// output form must reproduce bit for bit.
    #[cfg(test)]
    pub(crate) fn derivative_at_input(self, x: f64) -> f64 {
        match self {
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Identity => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_form_matches_the_input_form_bit_for_bit() {
        let tiny = f64::from_bits(1); // smallest subnormal
        let mut xs = vec![
            0.0,
            -0.0,
            tiny,
            -tiny,
            f64::MIN_POSITIVE / 3.0,
            -f64::MIN_POSITIVE / 3.0,
            f64::MIN_POSITIVE,
            1e-300,
            1e-8,
            -1e-8,
            0.3,
            -0.7,
            1.0,
            -2.5,
            // tanh rounds to ±1 here, so 1 − y² is exactly 0.
            20.0,
            -20.0,
            19.06,
            -18.7,
            1e300,
            -1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        xs.extend((-400..=400).map(|k| k as f64 * 0.0625));
        for act in [Activation::Relu, Activation::Tanh, Activation::Identity] {
            for &x in &xs {
                let old = act.derivative_at_input(x);
                let new = act.derivative_from_output(act.apply(x));
                assert_eq!(old.to_bits(), new.to_bits(), "{act:?} at {x:e}: {old} vs {new}");
            }
        }
        // NaN: ReLU's `max` drops it (derivative 0 either way), tanh and
        // identity propagate it.
        let relu_nan = Activation::Relu;
        assert_eq!(
            relu_nan.derivative_at_input(f64::NAN).to_bits(),
            relu_nan.derivative_from_output(relu_nan.apply(f64::NAN)).to_bits()
        );
        assert!(Activation::Tanh.derivative_from_output(Activation::Tanh.apply(f64::NAN)).is_nan());
        assert!(Activation::Tanh.derivative_at_input(f64::NAN).is_nan());
    }

    #[test]
    fn relu_shape() {
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.derivative_from_output(2.0), 1.0);
        assert_eq!(Activation::Relu.derivative_from_output(Activation::Relu.apply(-2.0)), 0.0);
    }

    #[test]
    fn tanh_derivative_matches_fd() {
        for &x in &[-2.0, -0.3, 0.0, 0.7, 1.9] {
            let d = Activation::Tanh.derivative_from_output(Activation::Tanh.apply(x));
            let h = 1e-6;
            let fd = (Activation::Tanh.apply(x + h) - Activation::Tanh.apply(x - h)) / (2.0 * h);
            assert!((d - fd).abs() < 1e-8, "x={x}");
        }
    }

    #[test]
    fn identity_passthrough() {
        assert_eq!(Activation::Identity.apply(-7.5), -7.5);
        assert_eq!(Activation::Identity.derivative_from_output(123.0), 1.0);
    }
}
