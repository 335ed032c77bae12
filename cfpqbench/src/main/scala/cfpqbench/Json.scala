package cfpqbench

/** Just enough JSON output for the benchmark's report lines. */
object Json {
  def render(v: Any): String = v match {
    case null                 => "null"
    case s: String            => quote(s)
    case b: Boolean           => b.toString
    case d: Double            => require(!d.isNaN && !d.isInfinite, s"not a JSON number: $d"); d.toString
    case n: Int               => n.toString
    case n: Long              => n.toString
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => s"${quote(k.toString)}: ${render(x)}" }.mkString("{", ", ", "}")
    case xs: Iterable[_]      => xs.map(render).mkString("[", ", ", "]")
    case other                => quote(other.toString)
  }

  def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'          => b ++= "\\\""
      case '\\'         => b ++= "\\\\"
      case '\n'         => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c            => b += c
    }
    b += '"'
    b.result()
  }
}
