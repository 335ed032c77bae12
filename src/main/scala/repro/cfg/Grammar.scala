package repro.cfg

/** A grammar symbol: either a terminal (an edge label) or a nonterminal. */
sealed trait Sym extends Product with Serializable

/** A terminal symbol — in CFPQ, an edge label of the graph. */
final case class T(label: String) extends Sym {
  override def toString: String = label
}

/** A nonterminal symbol. */
final case class N(name: String) extends Sym {
  override def toString: String = name
}

/** One production rule `lhs → rhs`. An empty `rhs` denotes `lhs → ε`. */
final case class Production(lhs: String, rhs: Seq[Sym]) {
  override def toString: String =
    s"$lhs -> ${if (rhs.isEmpty) "ε" else rhs.mkString(" ")}"
}

/** A context-free grammar as a bag of productions.
  *
  * Following the paper (after Hellings), there is no distinguished start
  * nonterminal: queries name the nonterminal whose relation they want.
  */
final case class Grammar(productions: Seq[Production]) {
  require(productions.nonEmpty, "a grammar needs at least one production")

  /** All nonterminals: every lhs plus every N appearing in a rhs. */
  lazy val nonterminals: Set[String] =
    productions.map(_.lhs).toSet ++
      productions.flatMap(_.rhs).collect { case N(n) => n }

  /** All terminal labels appearing in any rhs. */
  lazy val terminals: Set[String] =
    productions.flatMap(_.rhs).collect { case T(t) => t }.toSet

  override def toString: String = productions.mkString("\n")
}

object Grammar {

  /** Parse a grammar from lines of the form `S -> a S b | a b`.
    * Symbols are whitespace-separated; a symbol is a nonterminal iff it
    * appears as some rule's lhs, otherwise a terminal. `eps` denotes ε.
    */
  def parse(lines: String*): Grammar = {
    val raw: Seq[(String, Seq[String])] = lines.filter(_.trim.nonEmpty).flatMap { line =>
      val Array(lhs, rhsAll) = line.split("->", 2).map(_.trim)
      rhsAll.split("\\|").map(alt => lhs -> alt.trim.split("\\s+").toSeq.filter(_.nonEmpty))
    }
    val nts = raw.map(_._1).toSet
    val prods = raw.map { case (lhs, syms) =>
      val rhs: Seq[Sym] = syms.filterNot(_ == "eps").map {
        case s if nts.contains(s) => N(s)
        case s                    => T(s)
      }
      Production(lhs, rhs)
    }
    Grammar(prods)
  }
}

/** A grammar in Chomsky normal form (paper §2): only `A → BC` and `A → x`
  * rules; ε-rules are omitted, as in the paper (only empty paths would
  * match ε, and that check is trivial).
  *
  * @param binary rules `A → BC` as (A, B, C)
  * @param term   rules `A → x`  as (A, x)
  */
final case class CnfGrammar(binary: Seq[(String, String, String)],
                            term: Seq[(String, String)]) {
  require(term.nonEmpty, "a CNF grammar for CFPQ needs at least one terminal rule")

  lazy val nonterminals: Set[String] =
    binary.flatMap { case (a, b, c) => Seq(a, b, c) }.toSet ++ term.map(_._1)

  lazy val terminals: Set[String] = term.map(_._2).toSet

  /** For initialization: edge label → set of nonterminals deriving it. */
  lazy val byTerminal: Map[String, Set[String]] =
    term.groupBy(_._2).map { case (x, rs) => x -> rs.map(_._1).toSet }

  /** For closure: (B, C) → set of A with A → BC. */
  lazy val byPair: Map[(String, String), Set[String]] =
    binary.groupBy(r => (r._2, r._3)).map { case (k, rs) => k -> rs.map(_._1).toSet }

  /** Rules grouped by the first body nonterminal B → Seq((A, C)). */
  lazy val byFirst: Map[String, Seq[(String, String)]] =
    binary.groupBy(_._2).map { case (b, rs) => b -> rs.map(r => (r._1, r._3)) }

  /** Rules grouped by the second body nonterminal C → Seq((A, B)). */
  lazy val bySecond: Map[String, Seq[(String, String)]] =
    binary.groupBy(_._3).map { case (c, rs) => c -> rs.map(r => (r._1, r._2)) }

  override def toString: String =
    (binary.map { case (a, b, c) => s"$a -> $b $c" } ++
      term.map { case (a, x) => s"$a -> '$x'" }).mkString("\n")
}
